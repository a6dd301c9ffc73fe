//! The paper's quantitative claims, verified as integration tests.

use galvatron::baselines::{BaselinePlanner, BaselineStrategy};
use galvatron::prelude::*;
use galvatron::strategy::tree::total_candidates_across_pp;
use galvatron_cluster::collectives::{all_gather, all_reduce, reduce_scatter};
use galvatron_core::GalvatronOptimizer;

#[test]
fn figure2_search_space_counts() {
    // §3.2: 8-GPU decision trees yield 34 hybrid candidates across all PP
    // degrees, pruned to 22 by Takeaway #3.
    assert_eq!(total_candidates_across_pp(8, false), 34);
    assert_eq!(total_candidates_across_pp(8, true), 22);
}

#[test]
fn takeaway3_sdp_communication_arithmetic() {
    // §3.2's pruning argument: "integrating DP and SDP will lead to two
    // rounds of communication including 2(N1−1)/N1 for N1-way DP and
    // 3(N2−1)/N2 for N2-way SDP. Given N1×N2 = N, ... the minimum value of
    // its cost is still larger than that of pure SDP" — both rounds priced
    // at full model volume, as the paper does. (With the DP round priced at
    // the 1/N2 shard instead, the mixture can win on pure bandwidth, but it
    // pays twice the latency rounds and strictly more memory — the paper
    // prunes it regardless, and so do we.)
    let link = Link::of_class(LinkClass::Pcie3);
    let v = 512 * MIB;
    for n in [4usize, 8, 16, 32] {
        let pure_sdp = 2.0 * all_gather(n, v, link).bandwidth_time()
            + reduce_scatter(n, v, link).bandwidth_time();
        let mut n1 = 2;
        while n1 < n {
            let n2 = n / n1;
            let dp_part = all_reduce(n1, v, link).bandwidth_time();
            let sdp_part = 2.0 * all_gather(n2, v, link).bandwidth_time()
                + reduce_scatter(n2, v, link).bandwidth_time();
            assert!(
                dp_part + sdp_part > pure_sdp,
                "n={n} n1={n1}: mixture {} <= pure {}",
                dp_part + sdp_part,
                pure_sdp
            );
            n1 *= 2;
        }
    }
}

#[test]
fn table2_statistics_reproduce() {
    for m in PaperModel::ALL {
        let spec = m.spec();
        let params_err =
            (spec.total_param_count() as f64 / m.paper_param_count() as f64 - 1.0).abs();
        assert!(
            params_err < 0.02,
            "{} params off by {params_err:.3}",
            m.name()
        );
    }
}

#[test]
fn figure3_overlap_modeling_improves_estimates() {
    // The estimator with the §3.4 slowdown must beat the naive
    // max(compute, comm) estimator on communication-heavy plans, and the
    // naive one must under-predict.
    let cluster = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge32.spec();
    let planner = BaselinePlanner::new(
        cluster.clone(),
        OptimizerConfig {
            max_batch: 32,
            ..OptimizerConfig::default()
        },
    );
    let outcome = planner
        .plan(BaselineStrategy::PyTorchDdp, &model, 16 * GIB)
        .unwrap()
        .expect("DDP fits 16 GiB");

    let sim = Simulator::new(cluster.clone(), SimulatorConfig::default());
    let measured = sim.execute(&model, &outcome.plan).unwrap().iteration_time;

    let with_cfg = EstimatorConfig {
        include_boundary_comm: true,
        ..EstimatorConfig::default()
    };
    let without_cfg = EstimatorConfig {
        include_boundary_comm: true,
        ..EstimatorConfig::without_overlap_modeling()
    };
    let with = CostEstimator::new(cluster.clone(), with_cfg)
        .plan_cost(&model, &outcome.plan)
        .unwrap()
        .iteration_time;
    let without = CostEstimator::new(cluster, without_cfg)
        .plan_cost(&model, &outcome.plan)
        .unwrap()
        .iteration_time;

    let err_with = ((with - measured) / measured).abs();
    let err_without = ((without - measured) / measured).abs();
    assert!(err_with < 0.10, "with-overlap error {err_with:.3}");
    assert!(err_with < err_without, "{err_with:.3} !< {err_without:.3}");
    assert!(without < measured, "naive estimator must under-predict");
}

#[test]
fn restricted_searches_never_beat_the_full_search_in_estimate() {
    // §5.2's comparison baselines: DP+TP and DP+PP explore subsets of the
    // full space, so the full search's estimated throughput dominates.
    let cluster = TestbedPreset::RtxTitan8.topology();
    let planner = BaselinePlanner::new(
        cluster,
        OptimizerConfig {
            max_batch: 64,
            ..OptimizerConfig::default()
        },
    );
    for m in [PaperModel::BertHuge32, PaperModel::VitHuge32] {
        let model = m.spec();
        let full = planner
            .plan(BaselineStrategy::GalvatronFull, &model, 12 * GIB)
            .unwrap()
            .expect("feasible");
        for restricted in [
            BaselineStrategy::GalvatronDpTp,
            BaselineStrategy::GalvatronDpPp,
        ] {
            if let Some(out) = planner.plan(restricted, &model, 12 * GIB).unwrap() {
                assert!(
                    full.throughput_samples_per_sec >= out.throughput_samples_per_sec - 1e-9,
                    "{} beat full search on {}",
                    restricted.label(),
                    m.name()
                );
            }
        }
    }
}

#[test]
fn figure5_swin_depth_gradient() {
    // §5.5: "shallower layers prefer data parallel ... deeper layers prefer
    // tensor parallel".
    let cluster = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::SwinHuge32.spec();
    let outcome = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 128,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &cluster, 12 * GIB)
    .unwrap()
    .expect("feasible");

    let first_enc = model
        .layers
        .iter()
        .position(|l| l.is_transformer_layer())
        .unwrap();
    let last_enc = model.n_layers()
        - 1
        - model
            .layers
            .iter()
            .rev()
            .position(|l| l.is_transformer_layer())
            .unwrap();
    let shallow = outcome.plan.strategy_of(first_enc).unwrap();
    let deep = outcome.plan.strategy_of(last_enc).unwrap();
    assert!(
        shallow.data_degree() >= deep.data_degree(),
        "shallow {shallow} deep {deep}"
    );
    assert!(deep.tp() >= shallow.tp(), "shallow {shallow} deep {deep}");
}

#[test]
fn search_time_grows_mildly_with_cluster_size() {
    // §5.6: search cost grows ~2.2× from 8 to 16 GPUs — sub-exponential.
    let model = PaperModel::BertHuge32.spec();
    let cfg = OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    };
    let t8 = {
        let out = GalvatronOptimizer::new(cfg.clone())
            .optimize(&model, &TestbedPreset::RtxTitan8.topology(), 16 * GIB)
            .unwrap()
            .expect("feasible");
        out.stats.search_seconds
    };
    let t16 = {
        let out = GalvatronOptimizer::new(cfg)
            .optimize(&model, &TestbedPreset::RtxTitan16.topology(), 16 * GIB)
            .unwrap()
            .expect("feasible");
        out.stats.search_seconds
    };
    // Strategy space grows 22 → 46ish; time should grow far slower than the
    // naive |S|² × configurations blow-up. Generous bound to stay robust on
    // loaded CI machines.
    assert!(
        t16 < t8 * 40.0,
        "search time exploded: {t8:.3}s → {t16:.3}s"
    );
}
