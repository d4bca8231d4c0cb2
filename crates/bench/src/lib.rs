//! The hot-path bench gate's library half: the measurement loop, the
//! committed trajectory format and the comparison (see [`hotpath`]).

pub mod hotpath;
