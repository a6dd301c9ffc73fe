//! Custom and heterogeneous-bandwidth clusters (the paper's §6 future-work
//! direction): the same model planned on three different interconnect
//! fabrics. Watch *Takeaway #1* at work — as the inter-island link slows
//! down, the planner pushes pipeline cuts onto it and keeps
//! bandwidth-hungry paradigms inside the islands.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```

use galvatron::cluster::topology::TopologyLevel;
use galvatron::prelude::*;

fn fabric(name: &str, inter_node: Link) -> (String, ClusterTopology) {
    let topo = ClusterTopology::new(
        GpuSpec::rtx_titan(),
        16,
        vec![
            TopologyLevel {
                group_size: 4,
                link: Link::of_class(LinkClass::Pcie3),
            },
            TopologyLevel {
                group_size: 16,
                link: inter_node,
            },
        ],
    )
    .expect("valid topology");
    (name.to_string(), topo)
}

fn main() {
    let model = PaperModel::BertHuge32.spec();
    let budget = 12 * GIB;

    let fabrics = vec![
        fabric(
            "4×4, InfiniBand inter-node",
            Link::of_class(LinkClass::InfiniBand100),
        ),
        fabric(
            "4×4, 25GbE inter-node",
            Link::of_class(LinkClass::Ethernet25),
        ),
        fabric(
            "4×4, degraded 1 GB/s inter-node",
            Link::with_bandwidth(LinkClass::Ethernet25, 1.0e9),
        ),
    ];

    let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
        max_batch: 128,
        ..OptimizerConfig::default()
    });

    for (name, topo) in fabrics {
        println!("=== {name} (island size {}) ===", topo.island_size());
        match planner
            .optimize(&model, &topo, budget)
            .expect("topology lookups succeed")
        {
            Some(outcome) => {
                println!(
                    "{:.2} samples/s estimated, {}-way PP",
                    outcome.throughput_samples_per_sec,
                    outcome.plan.pp_degree()
                );
                println!("{}", outcome.plan.summary());

                // Verify on the simulator that the plan executes under
                // budget on this fabric too.
                let sim = Simulator::new(topo, SimulatorConfig::default().with_budget(budget));
                let report = sim.execute(&model, &outcome.plan).expect("plan executes");
                println!(
                    "simulated {:.2} samples/s, peak {:.2} GiB\n",
                    report.throughput,
                    report.peak_memory() as f64 / GIB as f64
                );
            }
            None => println!("infeasible under {} GiB\n", budget / GIB),
        }
    }
}
