//! Full-matrix integration tests: the §4.1 stress test and §4.2-style
//! fuzzing across every evaluated configuration.

use xg_core::XgVariant;
use xg_harness::{
    run_fuzz, run_stress, run_workload, AccelOrg, FuzzOpts, HostProtocol, Pattern, StressOpts,
    SystemConfig,
};

fn stress_opts(ops: u64) -> StressOpts {
    StressOpts {
        ops,
        ..StressOpts::default()
    }
}

#[test]
fn stress_all_twelve_configurations() {
    // `XG_BANKS` lets CI re-run this clean-stress gate on a banked home;
    // the assertions below are behavioral (no byte-compare), so any bank
    // count must pass them.
    for cfg in SystemConfig::matrix(7) {
        let cfg = cfg.apply_env_overrides();
        let name = cfg.exec_name();
        let out = run_stress(&cfg, &stress_opts(600));
        assert!(
            !out.deadlocked,
            "{name}: deadlocked after {} ops",
            out.completed
        );
        assert_eq!(
            out.data_errors, 0,
            "{name}: data errors: {:?}",
            out.error_log
        );
        assert!(out.completed >= 600, "{name}: only {} ops", out.completed);
        // No controller saw an impossible event.
        assert_eq!(
            out.report.sum_suffix(".protocol_violation"),
            0,
            "{name}: protocol violations"
        );
        assert_eq!(
            out.report.get("os.errors_total"),
            0,
            "{name}: spurious guard errors"
        );
        assert!(out.transitions > 10, "{name}: no coverage collected");
    }
}

#[test]
fn banked_homes_stay_clean() {
    // Independent of `XG_BANKS`: both host protocols with more than one
    // home bank, held to the same §4.1 gates as the single-home matrix.
    for (host, banks) in [(HostProtocol::Hammer, 2), (HostProtocol::Mesi, 3)] {
        let cfg = SystemConfig {
            host,
            home_banks: banks,
            seed: 77,
            ..SystemConfig::default()
        };
        let name = cfg.exec_name();
        let out = run_stress(&cfg, &stress_opts(400));
        assert!(!out.deadlocked, "{name}: deadlocked");
        assert_eq!(out.data_errors, 0, "{name}: {:?}", out.error_log);
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0, "{name}");
        assert_eq!(out.report.get("os.errors_total"), 0, "{name}");
    }
}

#[test]
fn stress_is_deterministic_per_seed() {
    let cfg = SystemConfig {
        seed: 42,
        ..SystemConfig::matrix(42)[2].clone() // hammer/xg_full_l1
    };
    let a = run_stress(&cfg, &stress_opts(400));
    let b = run_stress(&cfg, &stress_opts(400));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.completed, b.completed);
    let cfg2 = SystemConfig { seed: 43, ..cfg };
    let c = run_stress(&cfg2, &stress_opts(400));
    assert_ne!(
        (a.cycles, a.completed),
        (c.cycles, c.completed),
        "different seeds should diverge"
    );
}

#[test]
fn stress_many_seeds_on_guarded_configs() {
    // Extra seeds over the Crossing Guard configurations — the protocols
    // under test here are the paper's contribution.
    for seed in [11, 22, 33] {
        for (host, variant, two_level) in [
            (HostProtocol::Hammer, XgVariant::FullState, false),
            (HostProtocol::Hammer, XgVariant::Transactional, true),
            (HostProtocol::Mesi, XgVariant::FullState, true),
            (HostProtocol::Mesi, XgVariant::Transactional, false),
        ] {
            let cfg = SystemConfig {
                host,
                accel: AccelOrg::Xg { variant, two_level },
                accel_cores: if two_level { 2 } else { 1 },
                seed,
                ..SystemConfig::default()
            }
            .apply_env_overrides();
            let out = run_stress(&cfg, &stress_opts(500));
            assert!(!out.deadlocked, "{} seed {seed}", cfg.name());
            assert_eq!(
                out.data_errors,
                0,
                "{} seed {seed}: {:?}",
                cfg.name(),
                out.error_log
            );
        }
    }
}

#[test]
fn fuzzing_the_guard_never_breaks_the_host() {
    for (host, variant) in [
        (HostProtocol::Hammer, XgVariant::FullState),
        (HostProtocol::Hammer, XgVariant::Transactional),
        (HostProtocol::Mesi, XgVariant::FullState),
        (HostProtocol::Mesi, XgVariant::Transactional),
    ] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::FuzzXg { variant },
            seed: 5,
            ..SystemConfig::default()
        };
        let fuzz = FuzzOpts {
            messages: 400,
            ..FuzzOpts::default()
        };
        let out = run_fuzz(&cfg, &fuzz, 800);
        let name = cfg.name();
        assert!(!out.deadlocked, "{name}: host deadlocked under fuzz");
        assert_eq!(
            out.host_violations, 0,
            "{name}: fuzz traffic reached host controllers"
        );
        assert_eq!(out.cpu_data_errors, 0, "{name}: CPU data corrupted");
        assert!(out.cpu_ops_completed >= 800, "{name}: host starved");
        assert!(
            out.os_errors > 0,
            "{name}: violations must be reported to the OS"
        );
        assert!(out.injected >= 400);
    }
}

#[test]
fn fuzzing_an_unprotected_host_shows_the_problem() {
    // The control experiment: the same garbage aimed directly at the host
    // protocol (a buggy accelerator-side cache). The *unmodified strict*
    // host observes impossible events — exactly what Crossing Guard
    // prevents. (We do not require a deadlock — only that the host's
    // correctness envelope is pierced.)
    let mut pierced = false;
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::FuzzAccelSide,
            strict_host: true,
            seed: 6,
            ..SystemConfig::default()
        };
        let out = run_fuzz(
            &cfg,
            &FuzzOpts {
                messages: 400,
                ..FuzzOpts::default()
            },
            400,
        );
        pierced |= out.host_violations > 0 || out.deadlocked || out.cpu_data_errors > 0;
    }
    assert!(
        pierced,
        "raw fuzzing should disturb an unprotected strict host"
    );
}

#[test]
fn weak_sharing_accelerator_is_still_host_safe() {
    // The weak two-level accelerator may serve stale reads internally —
    // which the single-writer value checker tolerates (staleness is
    // monotone) — but must never corrupt values or disturb the host.
    for (host, seed) in [(HostProtocol::Hammer, 61), (HostProtocol::Mesi, 62)] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: true,
            },
            accel_cores: 2,
            weak_accel_sharing: true,
            seed,
            ..SystemConfig::default()
        };
        let out = run_stress(&cfg, &stress_opts(800));
        assert!(!out.deadlocked, "{} weak", cfg.name());
        assert_eq!(
            out.data_errors,
            0,
            "{} weak: {:?}",
            cfg.name(),
            out.error_log
        );
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(out.report.get("os.errors_total"), 0);
    }
}

#[test]
fn workload_runs_complete_on_guarded_config() {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        seed: 9,
        ..SystemConfig::default()
    };
    for pattern in [Pattern::Streaming, Pattern::GraphWalk] {
        let out = run_workload(&cfg, pattern, 2_000);
        assert!(!out.incomplete, "{}: incomplete", pattern.name());
        assert!(out.accel_runtime > 0);
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(out.report.get("os.errors_total"), 0);
    }
}

#[test]
fn performance_shape_host_side_is_slowest() {
    // The paper's headline performance claim: XG performs similarly to the
    // unsafe accelerator-side cache and better than the safe host-side
    // cache (§1). Check the ordering on a cache-friendly workload.
    let mk = |accel| SystemConfig {
        host: HostProtocol::Hammer,
        accel,
        seed: 10,
        ..SystemConfig::default()
    };
    let ops = 3_000;
    let accel_side = run_workload(&mk(AccelOrg::AccelSide), Pattern::Blocked, ops);
    let host_side = run_workload(&mk(AccelOrg::HostSide), Pattern::Blocked, ops);
    let xg = run_workload(
        &mk(AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        }),
        Pattern::Blocked,
        ops,
    );
    assert!(!accel_side.incomplete && !host_side.incomplete && !xg.incomplete);
    assert!(
        host_side.accel_runtime > xg.accel_runtime,
        "host-side ({}) should be slower than XG ({})",
        host_side.accel_runtime,
        xg.accel_runtime
    );
    // XG within 2x of the unsafe baseline on this workload (the paper
    // reports "similar"; our latencies are configured, not calibrated).
    assert!(
        xg.accel_runtime < accel_side.accel_runtime * 2,
        "xg ({}) should be near accel-side ({})",
        xg.accel_runtime,
        accel_side.accel_runtime
    );
}

/// Long-running soak in the spirit of the paper's 22 compute-years —
/// ignored by default; run with `cargo test -- --ignored` (use release
/// mode) to scale coverage up.
#[test]
#[ignore = "long-running soak; run explicitly with --ignored in release mode"]
fn soak_all_configurations() {
    for seed in [1001u64, 2002, 3003, 4004, 5005] {
        for cfg in SystemConfig::matrix(seed) {
            let out = run_stress(&cfg, &stress_opts(25_000));
            assert!(!out.deadlocked, "{} seed {seed}", cfg.name());
            assert_eq!(
                out.data_errors,
                0,
                "{} seed {seed}: {:?}",
                cfg.name(),
                out.error_log
            );
            assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
            assert_eq!(out.report.get("os.errors_total"), 0);
        }
    }
}

/// Regression: `mesi/xg_tx_l1` seed 1 deadlocked around op 871 when host
/// demands accumulated while the guard was absorbing the trailing InvAck
/// of a Put-vs-Inv race; those late demands were dropped unanswered.
#[test]
fn regression_late_demands_after_race_absorption() {
    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::Xg {
            variant: XgVariant::Transactional,
            two_level: false,
        },
        seed: 1,
        ..SystemConfig::default()
    };
    let out = run_stress(&cfg, &stress_opts(2_000));
    assert!(!out.deadlocked);
    assert_eq!(out.data_errors, 0, "{:?}", out.error_log);
}
