//! The shared [`Executor`]: byte-identity with the per-call pool,
//! fairness between concurrent campaigns, bounded admission,
//! cancellation, and panic isolation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qic_sweep::prelude::*;
use qic_sweep::Executor;

fn toy_space() -> ParamSpace {
    ParamSpace::new()
        .axis(Axis::ints("a", [1, 2, 3, 4]))
        .axis(Axis::ints("b", [0, 10]))
}

fn toy_campaign() -> Campaign {
    Campaign::new("exec", toy_space())
        .replicates(3)
        .seed(2006)
        .workers(3)
}

fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
    Metrics::new()
        .with("v", (point.i64("a") * 100 + point.i64("b")) as f64)
        .with("seed_lo", (ctx.seed % 1000) as f64)
        .with("rep", f64::from(ctx.replicate))
}

/// Runs `campaign` on the shared pool `exec` to completion.
fn run_on<F>(campaign: &Campaign, exec: &Executor, eval: F) -> CampaignReport
where
    F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
{
    let opts = RunOptions {
        exec: Some(exec),
        ..RunOptions::default()
    };
    campaign.run(&opts, eval).unwrap().complete().unwrap()
}

/// Runs `campaign` on a per-call pool to completion.
fn run(campaign: &Campaign) -> CampaignReport {
    campaign
        .run(&RunOptions::default(), eval)
        .unwrap()
        .complete()
        .unwrap()
}

#[test]
fn run_on_matches_run_byte_for_byte() {
    let transient = run(&toy_campaign());
    for workers in [1, 2, 4] {
        let exec = Executor::new(workers);
        let shared = run_on(&toy_campaign(), &exec, eval);
        assert_eq!(shared, transient, "{workers} pool workers");
        assert_eq!(shared.to_json(), transient.to_json(), "{workers} workers");
        assert_eq!(shared.to_csv(), transient.to_csv(), "{workers} workers");
        assert_eq!(
            shared.to_record_json(),
            transient.to_record_json(),
            "{workers} workers"
        );
    }
}

#[test]
fn one_executor_serves_sequential_campaigns() {
    let exec = Executor::new(2);
    let first = run_on(&toy_campaign(), &exec, eval);
    let second = run_on(&toy_campaign(), &exec, eval);
    assert_eq!(first.to_json(), second.to_json());
    // A different campaign on the same pool still matches its own
    // transient run.
    let other = toy_campaign().seed(7);
    assert_eq!(run_on(&other, &exec, eval).to_json(), run(&other).to_json());
}

#[test]
fn empty_campaign_runs_zero_points() {
    let exec = Executor::new(2);
    let space = ParamSpace::new().axis(Axis::ints("a", []));
    let report = run_on(&Campaign::new("empty", space), &exec, |_, _| unreachable!());
    assert!(report.points.is_empty());
}

/// Two campaigns submitted concurrently to a 2-worker pool must make
/// interleaved progress: round-robin claiming means neither drains
/// completely while the other waits.
#[test]
fn concurrent_campaigns_interleave_fairly() {
    let exec = Arc::new(Executor::new(2));
    let log: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = [0u8, 1u8]
        .into_iter()
        .map(|tag| {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let campaign = Campaign::new(format!("c{tag}"), toy_space()).seed(u64::from(tag));
                run_on(&campaign, &exec, move |point, _ctx| {
                    std::thread::sleep(Duration::from_millis(4));
                    log.lock().unwrap().push(tag);
                    Metrics::new().with("v", point.i64("a") as f64)
                })
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 16, "8 points per campaign");
    // Fairness: each campaign finishes a point before the other's last
    // point — a starved campaign would be all-at-the-end.
    let first_0 = log.iter().position(|&t| t == 0).unwrap();
    let first_1 = log.iter().position(|&t| t == 1).unwrap();
    let last_0 = log.iter().rposition(|&t| t == 0).unwrap();
    let last_1 = log.iter().rposition(|&t| t == 1).unwrap();
    assert!(
        first_0 < last_1 && first_1 < last_0,
        "no interleaving: {log:?}"
    );
}

/// With an admission bound of 1, the second submission is not admitted
/// until the first has claimed all its points — so in the evaluation
/// log, at most `workers` first-campaign entries (claimed-but-not-yet-
/// entered stragglers) may trail the second campaign's first entry.
#[test]
fn admission_bound_serialises_submissions() {
    let exec = Arc::new(Executor::with_admission(2, 1));
    let log: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = [0u8, 1u8]
        .into_iter()
        .map(|tag| {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let campaign = Campaign::new(format!("a{tag}"), toy_space());
                run_on(&campaign, &exec, move |point, _| {
                    log.lock().unwrap().push(tag);
                    std::thread::sleep(Duration::from_millis(2));
                    Metrics::new().with("v", point.i64("a") as f64)
                })
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 16, "8 points per campaign");
    let first = log[0];
    let switch = log.iter().position(|&t| t != first).unwrap();
    let stragglers = log[switch..].iter().filter(|&&t| t == first).count();
    assert!(
        stragglers <= 2,
        "admission 1 still interleaved submissions: {log:?}"
    );
}

/// Cancelling from inside the evaluation (deterministically, after four
/// points) stops further claims; the run reports itself partial.
#[test]
fn cancellation_stops_further_points() {
    let exec = Executor::new(2);
    let token = CancelToken::new();
    let evaluated = Arc::new(AtomicUsize::new(0));
    let campaign = Campaign::new("cancel", toy_space());
    let result = {
        let trip = token.clone();
        let evaluated = Arc::clone(&evaluated);
        let opts = RunOptions {
            exec: Some(&exec),
            cancel: token.clone(),
            ..RunOptions::default()
        };
        campaign
            .run(&opts, move |point, _| {
                if evaluated.fetch_add(1, Ordering::SeqCst) + 1 >= 4 {
                    trip.cancel();
                }
                Metrics::new().with("v", point.i64("a") as f64)
            })
            .unwrap()
    };
    assert!(
        result.complete().is_none(),
        "cancelled runs yield no report"
    );
    assert!(token.is_cancelled());
    let n = evaluated.load(Ordering::SeqCst);
    assert!((4..8).contains(&n), "claims continued after cancel: {n}");
}

#[test]
fn progress_sink_hears_point_claims() {
    let exec = Executor::new(2);
    let campaign = toy_campaign();
    let sink = Arc::new(JsonlProgress::new(Vec::new(), 8));
    let opts = RunOptions {
        exec: Some(&exec),
        progress: Some(Arc::clone(&sink) as _),
        ..RunOptions::default()
    };
    let report = campaign
        .run(&opts, eval)
        .unwrap()
        .complete()
        .expect("completes");
    assert_eq!(report.points.len(), 8);
    assert_eq!(sink.done(), 8, "one finish per point (not per replicate)");
}

#[test]
#[should_panic(expected = "point 3 exploded")]
fn panic_in_eval_propagates_to_the_submitter() {
    let exec = Executor::new(2);
    let _ = run_on(&Campaign::new("boom", toy_space()), &exec, |point, _| {
        if point.index() == 3 {
            panic!("point 3 exploded");
        }
        Metrics::new().with("v", 1.0)
    });
}

/// A panicking campaign must not poison the pool: a later submission on
/// the same executor still completes.
#[test]
fn pool_survives_a_panicked_submission() {
    let exec = Executor::new(2);
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on(
            &Campaign::new("boom", toy_space()),
            &exec,
            |_, _| -> Metrics {
                panic!("always");
            },
        )
    }));
    assert!(boom.is_err());
    let report = run_on(&toy_campaign(), &exec, eval);
    assert_eq!(report.to_json(), run(&toy_campaign()).to_json());
}
