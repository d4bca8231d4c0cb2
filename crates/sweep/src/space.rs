//! Declarative parameter spaces: named axes and their Cartesian product.
//!
//! A [`ParamSpace`] is an ordered list of [`Axis`] values; its points are
//! the Cartesian product, enumerated in **row-major order** (the last
//! axis varies fastest). Point enumeration is a pure function of the
//! space, so a campaign's point indices are stable across runs, thread
//! counts, and execution orders.

use std::fmt;

/// One coordinate value along an axis.
///
/// Axes are heterogeneous: resource counts are integers, error rates are
/// floats, and layouts or strategies are labels that the campaign
/// definition maps back onto domain types (usually via
/// [`SweepPoint::coord`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An integer coordinate (grid sizes, depths, seeds, ratios).
    Int(i64),
    /// A floating-point coordinate (error rates, cost factors).
    F64(f64),
    /// A categorical coordinate (layout names, strategy legends).
    Text(String),
}

impl AxisValue {
    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AxisValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; text is `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AxisValue::Int(v) => Some(*v as f64),
            AxisValue::F64(v) => Some(*v),
            AxisValue::Text(_) => None,
        }
    }

    /// The value as a string slice, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AxisValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate so width/alignment flags pass through.
        match self {
            AxisValue::Int(v) => fmt::Display::fmt(v, f),
            AxisValue::F64(v) => fmt::Display::fmt(v, f),
            AxisValue::Text(s) => f.pad(s),
        }
    }
}

/// A named sweep dimension with an explicit, ordered value list.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    pub(crate) name: String,
    pub(crate) values: Vec<AxisValue>,
}

impl Axis {
    /// An axis over explicit values.
    pub fn list(name: impl Into<String>, values: Vec<AxisValue>) -> Axis {
        Axis {
            name: name.into(),
            values,
        }
    }

    /// An integer axis over explicit values.
    pub fn ints(name: impl Into<String>, values: impl IntoIterator<Item = i64>) -> Axis {
        Axis::list(name, values.into_iter().map(AxisValue::Int).collect())
    }

    /// A float axis over explicit values.
    pub fn f64s(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Axis {
        Axis::list(name, values.into_iter().map(AxisValue::F64).collect())
    }

    /// A categorical axis over labels.
    pub fn labels<S: Into<String>>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Axis {
        Axis::list(
            name,
            values
                .into_iter()
                .map(|s| AxisValue::Text(s.into()))
                .collect(),
        )
    }

    /// A linearly spaced float axis: `start + i·step` for `i < count`.
    pub fn linear(name: impl Into<String>, start: f64, step: f64, count: usize) -> Axis {
        Axis::f64s(
            name,
            (0..count)
                .map(move |i| start + i as f64 * step)
                .collect::<Vec<_>>(),
        )
    }

    /// A log-spaced float axis: `10^(start_exp + i/per_decade)` covering
    /// `[10^start_exp, 10^stop_exp]` inclusive, `per_decade` points per
    /// decade.
    ///
    /// # Panics
    ///
    /// Panics if `stop_exp <= start_exp` or `per_decade` is zero.
    pub fn log_spaced(
        name: impl Into<String>,
        start_exp: i32,
        stop_exp: i32,
        per_decade: u32,
    ) -> Axis {
        assert!(stop_exp > start_exp, "log axis needs stop_exp > start_exp");
        assert!(
            per_decade > 0,
            "log axis needs at least one point per decade"
        );
        let decades = (stop_exp - start_exp) as u32;
        let count = decades * per_decade;
        let values = (0..=count)
            .map(|i| {
                let exp = f64::from(start_exp) + f64::from(i) / f64::from(per_decade);
                10f64.powf(exp)
            })
            .collect::<Vec<_>>();
        Axis::f64s(name, values)
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axis values, in sweep order.
    pub fn values(&self) -> &[AxisValue] {
        &self.values
    }

    /// Number of values along this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values (its space has zero points).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The Cartesian product of a list of axes.
///
/// An empty space (no axes) has exactly one point: the empty coordinate
/// tuple. A space containing an empty axis has zero points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSpace {
    axes: Vec<Axis>,
}

impl ParamSpace {
    /// An empty space (one point, no coordinates).
    pub fn new() -> ParamSpace {
        ParamSpace::default()
    }

    /// Appends an axis (builder style).
    ///
    /// # Panics
    ///
    /// Panics if an axis with the same name is already present.
    pub fn axis(mut self, axis: Axis) -> ParamSpace {
        assert!(
            self.axes.iter().all(|a| a.name != axis.name),
            "duplicate axis name {:?}",
            axis.name
        );
        self.axes.push(axis);
        self
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Total number of points (product of axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the space has zero points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The point at `index` in row-major order (last axis fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn point(&self, index: usize) -> SweepPoint<'_> {
        assert!(index < self.len(), "point {index} out of {}", self.len());
        let mut coords = vec![0usize; self.axes.len()];
        let mut rest = index;
        for (i, axis) in self.axes.iter().enumerate().rev() {
            coords[i] = rest % axis.len();
            rest /= axis.len();
        }
        SweepPoint {
            space: self,
            index,
            coords,
        }
    }

    /// Iterates over every point in index order.
    pub fn points(&self) -> impl Iterator<Item = SweepPoint<'_>> {
        (0..self.len()).map(|i| self.point(i))
    }
}

/// One point of a [`ParamSpace`]: an index plus per-axis coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<'a> {
    space: &'a ParamSpace,
    index: usize,
    coords: Vec<usize>,
}

impl SweepPoint<'_> {
    /// The point's linear index in row-major order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The coordinate (value index) along axis number `axis`.
    ///
    /// Useful for mapping a categorical axis back onto a domain constant
    /// table (e.g. `Layout::ALL[point.coord(1)]`).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn coord(&self, axis: usize) -> usize {
        self.coords[axis]
    }

    /// The value along the named axis.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name (a campaign-definition bug).
    pub fn value(&self, name: &str) -> &AxisValue {
        let (i, axis) = self
            .space
            .axes
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .unwrap_or_else(|| panic!("no axis named {name:?}"));
        &axis.values[self.coords[i]]
    }

    /// The named axis value as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not an integer axis.
    pub fn i64(&self, name: &str) -> i64 {
        self.value(name)
            .as_i64()
            .unwrap_or_else(|| panic!("axis {name:?} is not an integer axis"))
    }

    /// The named axis value as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing, not integer, or out of `u32` range.
    pub fn u32(&self, name: &str) -> u32 {
        u32::try_from(self.i64(name))
            .unwrap_or_else(|_| panic!("axis {name:?} value out of u32 range"))
    }

    /// The named axis value as `f64` (integers widen).
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or categorical.
    pub fn f64(&self, name: &str) -> f64 {
        self.value(name)
            .as_f64()
            .unwrap_or_else(|| panic!("axis {name:?} is not numeric"))
    }

    /// The named axis value as text.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not categorical.
    pub fn text(&self, name: &str) -> &str {
        self.value(name)
            .as_text()
            .unwrap_or_else(|| panic!("axis {name:?} is not categorical"))
    }

    /// `name=value` pairs for every axis, in axis order.
    pub fn params(&self) -> Vec<(&str, &AxisValue)> {
        self.space
            .axes
            .iter()
            .zip(&self.coords)
            .map(|(a, &c)| (a.name.as_str(), &a.values[c]))
            .collect()
    }
}

impl fmt::Display for SweepPoint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.index)?;
        for (name, value) in self.params() {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .axis(Axis::ints("a", [1, 2]))
            .axis(Axis::labels("b", ["x", "y", "z"]))
    }

    #[test]
    fn row_major_enumeration() {
        let s = space();
        assert_eq!(s.len(), 6);
        let p = s.point(0);
        assert_eq!((p.coord(0), p.coord(1)), (0, 0));
        // Last axis varies fastest.
        let p = s.point(1);
        assert_eq!((p.coord(0), p.coord(1)), (0, 1));
        let p = s.point(3);
        assert_eq!((p.coord(0), p.coord(1)), (1, 0));
        let p = s.point(5);
        assert_eq!((p.coord(0), p.coord(1)), (1, 2));
        assert_eq!(s.points().count(), 6);
    }

    #[test]
    fn point_accessors() {
        let s = space();
        let p = s.point(4); // a=2, b="y"
        assert_eq!(p.index(), 4);
        assert_eq!(p.i64("a"), 2);
        assert_eq!(p.u32("a"), 2);
        assert_eq!(p.f64("a"), 2.0);
        assert_eq!(p.text("b"), "y");
        assert_eq!(p.to_string(), "#4 a=2 b=y");
        assert_eq!(p.params().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no axis named")]
    fn unknown_axis_panics() {
        let s = space();
        let _ = s.point(0).value("nope");
    }

    #[test]
    #[should_panic(expected = "duplicate axis name")]
    fn duplicate_axis_rejected() {
        let _ = ParamSpace::new()
            .axis(Axis::ints("a", [1]))
            .axis(Axis::f64s("a", [1.0]));
    }

    #[test]
    fn empty_space_has_one_point() {
        let s = ParamSpace::new();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.point(0).params().len(), 0);
    }

    #[test]
    fn empty_axis_empties_the_space() {
        let s = ParamSpace::new().axis(Axis::ints("a", []));
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert!(s.axes()[0].is_empty());
    }

    #[test]
    fn linear_axis() {
        let a = Axis::linear("x", 1.0, 0.5, 4);
        let vals: Vec<f64> = a.values().iter().map(|v| v.as_f64().unwrap()).collect();
        assert_eq!(vals, vec![1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn log_axis_matches_powf_grid() {
        // Must reproduce the `10^(a + i/k)` grid used by the Figure 12
        // sweep bit-for-bit.
        let a = Axis::log_spaced("p", -9, -4, 4);
        assert_eq!(a.len(), 21);
        for (i, v) in a.values().iter().enumerate() {
            let expect = 10f64.powf(-9.0 + i as f64 / 4.0);
            assert_eq!(v.as_f64().unwrap().to_bits(), expect.to_bits());
        }
        assert_eq!(a.values()[0].as_f64().unwrap(), 1e-9);
    }

    #[test]
    fn axis_value_conversions() {
        assert_eq!(AxisValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AxisValue::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(AxisValue::F64(0.5).as_i64(), None);
        assert_eq!(AxisValue::Text("q".into()).as_f64(), None);
        assert_eq!(AxisValue::Text("q".into()).as_text(), Some("q"));
        assert_eq!(AxisValue::Int(3).as_text(), None);
        assert_eq!(AxisValue::F64(0.25).to_string(), "0.25");
    }
}
