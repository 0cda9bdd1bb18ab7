//! Timer semantics under the lazy-deletion heap: tie-breaking against
//! flows, cancellation of entries whose heap slots went stale, and tag
//! reuse. Every scenario runs under both schedulers — the heap must be
//! observably identical to the reference scan.

use rocks_netsim::{micros, seconds, Engine, EngineMode, Wakeup};

const MB: f64 = 1e6;

fn both_modes(scenario: impl Fn(&mut Engine)) {
    for mode in [EngineMode::Fast, EngineMode::Reference] {
        let mut engine = Engine::new_with_mode(vec![10.0 * MB], mode);
        scenario(&mut engine);
    }
}

#[test]
fn timer_wins_same_timestamp_tie_against_flow() {
    // A 10 MB flow at 10 MB/s completes at exactly t = 1 s; a timer lands
    // on the same microsecond. Current semantics: `tt <= ft`, timer first.
    both_modes(|engine| {
        engine.start_flow(0, 1, 10_000_000, 10.0 * MB);
        engine.start_timer(2, micros(1.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 2 });
        assert_eq!(engine.now(), micros(1.0));
        assert_eq!(engine.step(), Wakeup::FlowDone { tag: 1 });
        assert_eq!(engine.now(), micros(1.0));
    });
}

#[test]
fn cancel_after_fire_is_inert_and_rearm_works() {
    // Firing pops the live entry but (in the fast path) its heap slot is
    // only reclaimed lazily. Cancelling the tag afterwards must not
    // disturb anything, and a re-armed timer with the same tag must fire
    // at its new time exactly once.
    both_modes(|engine| {
        engine.start_timer(3, micros(1.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 3 });
        engine.cancel_timers_tagged(3); // entry already popped — no-op
        assert_eq!(engine.live_timers(), 0);
        engine.start_timer(3, micros(5.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 3 });
        assert!((seconds(engine.now()) - 6.0).abs() < 1e-6);
        assert_eq!(engine.step(), Wakeup::Idle);
    });
}

#[test]
fn rearming_a_cancelled_tag_fires_at_the_new_time_only() {
    // Cancel leaves a stale heap entry at the *earlier* time; the re-armed
    // timer must not inherit it.
    both_modes(|engine| {
        engine.start_timer(7, micros(1.0));
        engine.cancel_timers_tagged(7);
        engine.start_timer(7, micros(3.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 7 });
        assert_eq!(engine.now(), micros(3.0), "stale 1 s entry must not fire");
        assert_eq!(engine.step(), Wakeup::Idle);
    });
}

#[test]
fn same_tag_timers_fire_in_arm_order() {
    both_modes(|engine| {
        engine.start_timer(4, micros(2.0));
        engine.start_timer(4, micros(1.0));
        engine.start_timer(4, micros(1.0));
        // Two timers on the same microsecond: armed-first fires first
        // (observable only through the clock here, so check the count).
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 4 });
        assert_eq!(engine.now(), micros(1.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 4 });
        assert_eq!(engine.now(), micros(1.0));
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 4 });
        assert_eq!(engine.now(), micros(2.0));
        assert_eq!(engine.step(), Wakeup::Idle);
    });
}

#[test]
fn cancelling_one_tag_leaves_others_alone() {
    both_modes(|engine| {
        engine.start_timer(1, micros(1.0));
        engine.start_timer(2, micros(2.0));
        engine.start_timer(1, micros(3.0));
        engine.cancel_timers_tagged(1);
        assert_eq!(engine.live_timers(), 1);
        assert_eq!(engine.step(), Wakeup::TimerFired { tag: 2 });
        assert_eq!(engine.now(), micros(2.0));
        assert_eq!(engine.step(), Wakeup::Idle);
    });
}

#[test]
fn interleaved_cancel_rearm_storm_stays_consistent() {
    // A node FSM-style churn: every "phase" cancels the tag and re-arms
    // it. The heap accumulates stale entries; only the latest generation
    // may ever fire.
    both_modes(|engine| {
        let mut fired = 0;
        for round in 1..=50u64 {
            engine.cancel_timers_tagged(9);
            engine.start_timer(9, micros(0.5));
            if round % 5 == 0 {
                assert_eq!(engine.step(), Wakeup::TimerFired { tag: 9 });
                fired += 1;
            }
        }
        assert_eq!(fired, 10);
        // Round 50 fired the final generation; nothing may remain.
        assert_eq!(engine.live_timers(), 0);
        assert_eq!(engine.step(), Wakeup::Idle);
    });
}
