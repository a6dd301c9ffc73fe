//! Builds the iteration task graph for a [`ParallelPlan`].
//!
//! One training iteration becomes:
//!
//! * per stage, per micro-batch, per layer: a forward compute task, the
//!   layer's TP all-reduce(s), and any Slice-Gather transformation from the
//!   previous layer's strategy;
//! * GPipe boundary sends between consecutive stages (forward activations,
//!   backward gradients) holding both stages' comm streams;
//! * a zero-work **flush barrier** after the last forward (GPipe runs the
//!   full forward sweep before any backward);
//! * backward mirrors forward at 2× compute, in reverse micro order;
//! * ZeRO-3 parameter all-gathers with one-layer lookahead prefetch before
//!   the first forward/backward micro-batch of each layer, and a gradient
//!   reduce-scatter after the last;
//! * DP gradient all-reduces issued when a layer's last backward micro-batch
//!   completes — they run on the comm stream and overlap later layers'
//!   backward compute, which is where the §3.4 contention bites.

use crate::config::SimulatorConfig;
use crate::task::{
    barrier_task, comm_task, compute_task, MemDelta, StreamId, Task, TaskGraph, TaskId, TaskKind,
};
use galvatron_cluster::collectives::{all_gather, all_reduce, point_to_point, reduce_scatter};
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_model::{LayerSpec, ModelSpec};
use galvatron_strategy::layout::transformation_time;
use galvatron_strategy::{IntraStageStrategy, Paradigm, ParallelPlan, PipelineSchedule, StagePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the task graph of one iteration.
pub fn build_iteration_graph(
    model: &ModelSpec,
    plan: &ParallelPlan,
    topology: &ClusterTopology,
    config: &SimulatorConfig,
) -> Result<TaskGraph, ClusterError> {
    build_iteration_graph_pooled(model, plan, topology, config, None)
}

/// Like [`build_iteration_graph`], registering every communication group
/// the plan uses in `pool` first (the paper's §4 pre-created group pool).
pub fn build_iteration_graph_pooled(
    model: &ModelSpec,
    plan: &ParallelPlan,
    topology: &ClusterTopology,
    config: &SimulatorConfig,
    pool: Option<&galvatron_cluster::CommGroupPool>,
) -> Result<TaskGraph, ClusterError> {
    if let Some(pool) = pool {
        register_plan_groups(plan, pool)?;
    }
    Builder::new(model, plan, topology, config).build()
}

/// Intern every communication group `plan`'s strategies induce: the groups
/// of each strategy axis, and the boundary sender/receiver pairs.
pub fn register_plan_groups(
    plan: &ParallelPlan,
    pool: &galvatron_cluster::CommGroupPool,
) -> Result<(), ClusterError> {
    for stage in &plan.stages {
        for strategy in &stage.layer_strategies {
            for axis in 0..strategy.axes().len() {
                for group in strategy.axis_groups(axis, stage.device_base) {
                    if group.len() >= 2 {
                        pool.get_or_create(group)?;
                    }
                }
            }
        }
    }
    for window in plan.stages.windows(2) {
        let (a, b) = (&window[0], &window[1]);
        pool.get_or_create(vec![a.device_base + a.device_count - 1, b.device_base])?;
    }
    Ok(())
}

struct Builder<'a> {
    model: &'a ModelSpec,
    topology: &'a ClusterTopology,
    config: &'a SimulatorConfig,
    /// Sustained FLOP/s per stage (the slowest member of its device group).
    stage_flops: Vec<f64>,
    stages: Vec<StagePlan>,
    micro_batches: usize,
    micro_size: usize,
    schedule: PipelineSchedule,
    graph: TaskGraph,
    rng: StdRng,
    priority: u64,
    /// The logical schedule slot of the operation currently being built;
    /// priorities are `(slot << 24) | counter`, so stream arbitration
    /// follows the intended GPipe / 1F1B order.
    slot: u64,
    /// `fwd_out[stage][micro][local_layer]` — the task whose completion
    /// makes the layer's forward output available.
    fwd_out: Vec<Vec<Vec<TaskId>>>,
    /// `bwd_out[stage][micro][local_layer]` — the task producing the
    /// layer's input gradient.
    bwd_out: Vec<Vec<Vec<TaskId>>>,
    /// Compute-task ids (micro-serialization anchors: the next micro-batch
    /// may start once the previous micro's *compute* retires — its TP
    /// collective drains on the comm stream concurrently).
    fwd_cmp: Vec<Vec<Vec<TaskId>>>,
    bwd_cmp: Vec<Vec<Vec<TaskId>>>,
}

impl<'a> Builder<'a> {
    fn new(
        model: &'a ModelSpec,
        plan: &'a ParallelPlan,
        topology: &'a ClusterTopology,
        config: &'a SimulatorConfig,
    ) -> Self {
        let p = plan.stages.len();
        let m = plan.micro_batches;
        let stage_flops = plan
            .stages
            .iter()
            .map(|s| {
                topology
                    .group_sustained_flops(s.device_base, s.device_count)
                    .expect("validated plan device groups are in range")
            })
            .collect();
        Builder {
            model,
            topology,
            config,
            stage_flops,
            stages: plan.stages.clone(),
            micro_batches: m,
            micro_size: plan.micro_batch_size(),
            schedule: plan.schedule,
            graph: TaskGraph::new(p),
            rng: StdRng::seed_from_u64(config.seed),
            priority: 0,
            slot: 0,
            fwd_out: vec![vec![Vec::new(); m]; p],
            bwd_out: vec![vec![Vec::new(); m]; p],
            fwd_cmp: vec![vec![Vec::new(); m]; p],
            bwd_cmp: vec![vec![Vec::new(); m]; p],
        }
    }

    fn next_priority(&mut self) -> u64 {
        self.priority += 1;
        (self.slot << 24) | self.priority
    }

    /// Warm-up depth of stage `s` under 1F1B.
    fn warmup(&self, s: usize) -> u64 {
        (self.stages.len() - s) as u64
    }

    /// Enter the schedule slot of stage `s`'s forward for micro-batch `k`.
    fn enter_fwd_slot(&mut self, s: usize, k: usize) {
        self.slot = match self.schedule {
            PipelineSchedule::GPipe => 0,
            PipelineSchedule::OneFOneB => {
                let w = self.warmup(s);
                let k = k as u64;
                if k < w {
                    k
                } else {
                    w + 2 * (k - w) + 1
                }
            }
        };
    }

    /// Enter the schedule slot of stage `s`'s backward for micro-batch `k`.
    fn enter_bwd_slot(&mut self, s: usize, k: usize) {
        self.slot = match self.schedule {
            PipelineSchedule::GPipe => 2,
            PipelineSchedule::OneFOneB => self.warmup(s) + 2 * k as u64,
        };
    }

    fn noise(&mut self) -> f64 {
        let sigma = self.config.kernel_noise;
        if sigma <= 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-sigma..=sigma)
        }
    }

    fn layer(&self, idx: usize) -> &LayerSpec {
        &self.model.layers[idx]
    }

    fn fwd_work(&mut self, stage: usize, layer: &LayerSpec, strategy: &IntraStageStrategy) -> f64 {
        let samples = self.micro_size as f64 / strategy.data_degree() as f64;
        let flops = layer.forward_flops_per_sample() * samples / strategy.tp() as f64;
        flops / self.stage_flops[stage] * self.noise() + self.config.kernel_overhead
    }

    fn tp_comm_work(
        &self,
        layer: &LayerSpec,
        strategy: &IntraStageStrategy,
        base: usize,
    ) -> Result<f64, ClusterError> {
        let tp = strategy.tp();
        if tp <= 1 || layer.tp_allreduces_per_pass() == 0 {
            return Ok(0.0);
        }
        let link = strategy
            .paradigm_link(self.topology, Paradigm::Tensor, base)?
            .expect("tp > 1 implies a tensor axis");
        let payload = layer.output_bytes_per_sample(self.model.dtype) * self.micro_size as u64
            / strategy.data_degree() as u64;
        let per_pass = layer.tp_allreduces_per_pass() as f64;
        Ok(per_pass * all_reduce(tp, payload, link).time() + self.config.comm_overhead)
    }

    /// Per-device activation stash bytes for one micro-batch of a layer.
    /// With recomputation only the layer-boundary input survives until
    /// backward. `recompute` is the plan's per-layer decision.
    fn act_bytes_per_micro(
        &self,
        layer: &LayerSpec,
        strategy: &IntraStageStrategy,
        recompute: bool,
    ) -> i64 {
        let samples = (self.micro_size / strategy.data_degree()).max(1) as u64;
        let per_sample = if recompute {
            layer.output_bytes_per_sample(self.model.dtype)
        } else {
            layer.activation_bytes_tp(self.model.dtype, strategy.tp() as u64)
        };
        (per_sample * samples) as i64
    }

    fn state_bytes(&self, layer: &LayerSpec, strategy: &IntraStageStrategy) -> u64 {
        let shard = (strategy.tp() * strategy.sdp()) as u64;
        let params = layer.param_bytes(self.model.dtype).div_ceil(shard);
        let grads = params;
        let opt = (layer.param_count() * self.config.optimizer_bytes_per_param).div_ceil(shard);
        params + grads + opt
    }

    fn transient_bytes(&self, layer: &LayerSpec, strategy: &IntraStageStrategy) -> i64 {
        if strategy.sdp() <= 1 {
            return 0;
        }
        layer
            .param_bytes(self.model.dtype)
            .div_ceil(strategy.tp() as u64) as i64
    }

    fn build(mut self) -> Result<TaskGraph, ClusterError> {
        let p = self.stages.len();
        let m = self.micro_batches;

        // Pre-iteration resident state per stage.
        for s in 0..p {
            let stage = self.stages[s].clone();
            let total: u64 = (stage.layer_start..stage.layer_end)
                .zip(&stage.layer_strategies)
                .map(|(l, strat)| self.state_bytes(&self.model.layers[l], strat))
                .sum();
            self.graph.set_initial_memory(s, total);
        }

        self.build_forward()?;

        // GPipe flush barrier: every stage's forward sweep must finish
        // before any backward starts. 1F1B interleaves instead.
        let barrier_id = if self.schedule == PipelineSchedule::GPipe {
            self.slot = 1;
            let prio = self.next_priority();
            let id = self.graph.add(barrier_task(prio, "fwd_flush"));
            for s in 0..p {
                if let Some(&last) = self.fwd_out[s][m - 1].last() {
                    self.graph.add_dep(last, id);
                }
            }
            Some(id)
        } else {
            None
        };

        self.build_backward(barrier_id)?;

        // 1F1B back-pressure: stage `s` may not start forward micro `k`
        // until its backward of micro `k − warmup` has retired — this is
        // what bounds the in-flight stash (PipeDream-flush's defining
        // property), not just the priority order.
        if self.schedule == PipelineSchedule::OneFOneB {
            for s in 0..p {
                let w = self.warmup(s) as usize;
                for k in w..m {
                    let gate = self.bwd_cmp[s][k - w][0];
                    let fwd_first = self.fwd_cmp[s][k][0];
                    self.graph.add_dep(gate, fwd_first);
                }
            }
        }
        Ok(self.graph)
    }

    fn build_forward(&mut self) -> Result<(), ClusterError> {
        let p = self.stages.len();
        let m = self.micro_batches;

        for k in 0..m {
            for s in 0..p {
                let stage = self.stages[s].clone();
                self.enter_fwd_slot(s, k);
                for offset in 0..stage.n_layers() {
                    let l = stage.layer_start + offset;
                    let layer = self.layer(l).clone();
                    let strategy = stage.layer_strategies[offset].clone();
                    let base = stage.device_base;

                    // ZeRO-3 re-gathers parameters for every micro-batch's
                    // forward (FSDP frees them after each module forward).
                    // One-layer lookahead prefetch bounds unsharded-parameter
                    // co-residency to about two layers.
                    let fwd_gather = if strategy.sdp() > 1 {
                        let gather =
                            self.sdp_gather_task(s, l, k, &layer, &strategy, "fwd_gather")?;
                        if offset >= 2 {
                            let anchor = self.fwd_cmp[s][k][offset - 2];
                            self.graph.add_dep(anchor, gather);
                        } else if k > 0 {
                            let anchor = self.fwd_cmp[s][k - 1][offset];
                            self.graph.add_dep(anchor, gather);
                        }
                        Some(gather)
                    } else {
                        None
                    };

                    // Slice-Gather from the previous layer's layout.
                    let transform = if offset > 0 {
                        self.transform_task(s, l, k, &stage, offset)?
                    } else {
                        None
                    };

                    let work = self.fwd_work(s, &layer, &strategy);
                    let prio = self.next_priority();
                    let mut task = compute_task(s, work, prio, format!("fwd L{l} µ{k}"));
                    task.mem_on_start.push(MemDelta {
                        stage: s,
                        bytes: self.act_bytes_per_micro(
                            &layer,
                            &strategy,
                            stage.recompute_of(offset),
                        ),
                    });
                    if strategy.sdp() > 1 {
                        // Free the gathered parameters after this
                        // micro-batch's forward.
                        task.mem_on_finish.push(MemDelta {
                            stage: s,
                            bytes: -self.transient_bytes(&layer, &strategy),
                        });
                    }
                    let id = self.graph.add(task);

                    if let Some(t) = transform {
                        self.graph.add_dep(t, id);
                    }
                    if offset > 0 {
                        let prev = self.fwd_out[s][k][offset - 1];
                        self.graph.add_dep(prev, id);
                    } else if s > 0 {
                        let recv = self.boundary_task(s - 1, s, k, true)?;
                        self.graph.add_dep(recv, id);
                    }
                    if k > 0 {
                        let prev_micro = self.fwd_cmp[s][k - 1][offset];
                        self.graph.add_dep(prev_micro, id);
                    }
                    if let Some(g) = fwd_gather {
                        self.graph.add_dep(g, id);
                    }

                    let out = self.tp_comm_after(s, l, k, &layer, &strategy, base, id, "fwd")?;
                    self.fwd_cmp[s][k].push(id);
                    self.fwd_out[s][k].push(out);
                }
            }
        }
        Ok(())
    }

    fn build_backward(&mut self, barrier: Option<TaskId>) -> Result<(), ClusterError> {
        let p = self.stages.len();
        let m = self.micro_batches;

        for s in 0..p {
            for k in 0..m {
                self.bwd_out[s][k] = vec![TaskId(0); self.stages[s].n_layers()];
                self.bwd_cmp[s][k] = vec![TaskId(0); self.stages[s].n_layers()];
            }
        }

        // GPipe drains micro-batches in reverse (the most recent stashes
        // free first); 1F1B consumes them in arrival order. Stages and
        // layers walk in reverse either way.
        let micro_order: Vec<usize> = match self.schedule {
            PipelineSchedule::GPipe => (0..m).rev().collect(),
            PipelineSchedule::OneFOneB => (0..m).collect(),
        };
        let mut prev_k: Option<usize> = None;
        for &k in &micro_order {
            for s in (0..p).rev() {
                let stage = self.stages[s].clone();
                self.enter_bwd_slot(s, k);
                for offset in (0..stage.n_layers()).rev() {
                    let l = stage.layer_start + offset;
                    let layer = self.layer(l).clone();
                    let strategy = stage.layer_strategies[offset].clone();
                    let base = stage.device_base;
                    let last_offset = stage.n_layers() - 1;

                    // Per-micro-batch ZeRO-3 backward gather, prefetched one
                    // layer ahead (backward walks layers in reverse).
                    let bwd_gather = if strategy.sdp() > 1 {
                        let gather =
                            self.sdp_gather_task(s, l, k, &layer, &strategy, "bwd_gather")?;
                        if offset + 2 <= last_offset {
                            let anchor = self.bwd_cmp[s][k][offset + 2];
                            self.graph.add_dep(anchor, gather);
                        } else if let Some(pk) = prev_k {
                            let anchor = self.bwd_cmp[s][pk][offset];
                            self.graph.add_dep(anchor, gather);
                        } else if let Some(b) = barrier {
                            self.graph.add_dep(b, gather);
                        } else {
                            // 1F1B: the first backward follows this stage's
                            // forward of the same micro-batch.
                            let anchor = *self.fwd_out[s][k]
                                .last()
                                .expect("forward built before backward");
                            self.graph.add_dep(anchor, gather);
                        }
                        Some(gather)
                    } else {
                        None
                    };

                    // Backward is 2× forward; with recomputation (this
                    // layer's plan decision) the layer's forward is replayed
                    // first.
                    let recompute = stage.recompute_of(offset);
                    let backward_factor = if recompute { 3.0 } else { 2.0 };
                    let work = backward_factor * self.fwd_work(s, &layer, &strategy);
                    let prio = self.next_priority();
                    let mut task = compute_task(s, work, prio, format!("bwd L{l} µ{k}"));
                    task.mem_on_finish.push(MemDelta {
                        stage: s,
                        bytes: -self.act_bytes_per_micro(
                            &layer,
                            &strategy,
                            stage.recompute_of(offset),
                        ),
                    });
                    if strategy.sdp() > 1 {
                        task.mem_on_finish.push(MemDelta {
                            stage: s,
                            bytes: -self.transient_bytes(&layer, &strategy),
                        });
                    }
                    let id = self.graph.add(task);

                    if let Some(b) = barrier {
                        self.graph.add_dep(b, id);
                    }
                    // The layer's own forward (its stash) must precede its
                    // backward — implied by the barrier under GPipe, explicit
                    // under 1F1B.
                    self.graph.add_dep(self.fwd_out[s][k][offset], id);
                    if offset < last_offset {
                        let upstream = self.bwd_out[s][k][offset + 1];
                        self.graph.add_dep(upstream, id);
                    } else if s + 1 < p {
                        let recv = self.boundary_task(s + 1, s, k, false)?;
                        self.graph.add_dep(recv, id);
                    }
                    if let Some(pk) = prev_k {
                        let prev_micro = self.bwd_cmp[s][pk][offset];
                        self.graph.add_dep(prev_micro, id);
                    }
                    if let Some(g) = bwd_gather {
                        self.graph.add_dep(g, id);
                    }

                    let out = self.tp_comm_after(s, l, k, &layer, &strategy, base, id, "bwd")?;
                    self.bwd_cmp[s][k][offset] = id;
                    self.bwd_out[s][k][offset] = out;

                    // ZeRO-3 reduce-scatters gradients every micro-batch;
                    // DP all-reduces once, after the last one.
                    let last_micro = Some(&k) == micro_order.last();
                    self.grad_sync_tasks(s, l, &layer, &strategy, base, out, last_micro)?;
                }
            }
            prev_k = Some(k);
        }
        Ok(())
    }

    /// The layer's ZeRO-3 parameter all-gather (allocates the transient on
    /// completion).
    #[allow(clippy::too_many_arguments)]
    fn sdp_gather_task(
        &mut self,
        s: usize,
        l: usize,
        k: usize,
        layer: &LayerSpec,
        strategy: &IntraStageStrategy,
        label: &str,
    ) -> Result<TaskId, ClusterError> {
        let base = self.stages[s].device_base;
        let link = strategy
            .paradigm_link(self.topology, Paradigm::ShardedData, base)?
            .expect("sdp > 1 implies a sharded-data axis");
        let payload = layer
            .param_bytes(self.model.dtype)
            .div_ceil(strategy.tp() as u64);
        let work = all_gather(strategy.sdp(), payload, link).time() + self.config.comm_overhead;
        let prio = self.next_priority();
        let mut task = comm_task(s, work, prio, format!("{label} L{l} µ{k}"));
        task.mem_on_finish.push(MemDelta {
            stage: s,
            bytes: self.transient_bytes(layer, strategy),
        });
        Ok(self.graph.add(task))
    }

    /// Slice-Gather transformation before layer `l` (offset > 0), if any.
    fn transform_task(
        &mut self,
        s: usize,
        l: usize,
        k: usize,
        stage: &StagePlan,
        offset: usize,
    ) -> Result<Option<TaskId>, ClusterError> {
        let prev_strategy = &stage.layer_strategies[offset - 1];
        let strategy = &stage.layer_strategies[offset];
        if prev_strategy == strategy || stage.device_count <= 1 {
            return Ok(None);
        }
        let group: Vec<usize> =
            (stage.device_base..stage.device_base + stage.device_count).collect();
        let link = self.topology.bottleneck_link(&group)?;
        let prev_layer = self.layer(l - 1);
        let bytes = prev_layer.output_bytes_per_sample(self.model.dtype) * self.micro_size as u64;
        let time = transformation_time(prev_strategy, strategy, bytes, link);
        if time <= 0.0 {
            return Ok(None);
        }
        let work = time + self.config.comm_overhead;
        let prio = self.next_priority();
        let task = comm_task(s, work, prio, format!("slice-gather L{l} µ{k}"));
        let id = self.graph.add(task);
        let prev_out = self.fwd_out[s][k][offset - 1];
        self.graph.add_dep(prev_out, id);
        Ok(Some(id))
    }

    /// Boundary transfer between stages (forward: `from < to`; backward:
    /// `from > to`). Returns the receive-complete task.
    fn boundary_task(
        &mut self,
        from: usize,
        to: usize,
        k: usize,
        forward: bool,
    ) -> Result<TaskId, ClusterError> {
        let from_stage = &self.stages[from];
        let to_stage = &self.stages[to];
        // The payload is always the activation at the earlier stage's
        // output boundary.
        let boundary_layer_idx = if forward {
            from_stage.layer_end - 1
        } else {
            to_stage.layer_end - 1
        };
        let bytes = self.model.layers[boundary_layer_idx].output_bytes_per_sample(self.model.dtype)
            * self.micro_size as u64;
        let link = self
            .topology
            .link_between(from_stage.device_base, to_stage.device_base)?;
        let work = point_to_point(bytes, link).time() + self.config.comm_overhead;
        let dir = if forward { "act" } else { "grad" };
        let prio = self.next_priority();
        let task = Task {
            kind: TaskKind::Comm,
            streams: vec![StreamId::comm(from), StreamId::comm(to)],
            work,
            priority: prio,
            mem_on_start: Vec::new(),
            mem_on_finish: Vec::new(),
            label: format!("send {dir} s{from}→s{to} µ{k}"),
        };
        let id = self.graph.add(task);
        let dep = if forward {
            *self.fwd_out[from][k]
                .last()
                .expect("sender stage finished this micro")
        } else {
            self.bwd_out[from][k][0]
        };
        self.graph.add_dep(dep, id);
        Ok(id)
    }

    /// The TP all-reduce following a layer's compute (fwd or bwd). Returns
    /// the task producing the layer's output.
    #[allow(clippy::too_many_arguments)]
    fn tp_comm_after(
        &mut self,
        s: usize,
        l: usize,
        k: usize,
        layer: &LayerSpec,
        strategy: &IntraStageStrategy,
        base: usize,
        compute: TaskId,
        phase: &str,
    ) -> Result<TaskId, ClusterError> {
        let work = self.tp_comm_work(layer, strategy, base)?;
        if work <= 0.0 {
            return Ok(compute);
        }
        let prio = self.next_priority();
        let task = comm_task(s, work, prio, format!("{phase} tp-allreduce L{l} µ{k}"));
        let id = self.graph.add(task);
        self.graph.add_dep(compute, id);
        Ok(id)
    }

    /// Gradient synchronisation: a ZeRO-3 reduce-scatter after every
    /// micro-batch's backward, and a DP all-reduce after the last one.
    #[allow(clippy::too_many_arguments)]
    fn grad_sync_tasks(
        &mut self,
        s: usize,
        l: usize,
        layer: &LayerSpec,
        strategy: &IntraStageStrategy,
        base: usize,
        after: TaskId,
        last_micro: bool,
    ) -> Result<(), ClusterError> {
        let param_bytes_tp = layer
            .param_bytes(self.model.dtype)
            .div_ceil(strategy.tp() as u64);
        // Gradient synchronisation runs on NCCL's low-priority collective
        // stream in real systems: it must never delay pipeline boundary
        // transfers. A high offset keeps these tasks behind any later-issued
        // send in the ready queue.
        const GRAD_SYNC_BAND: u64 = 1 << 40;
        if strategy.sdp() > 1 {
            let link = strategy
                .paradigm_link(self.topology, Paradigm::ShardedData, base)?
                .expect("sdp > 1 implies a sharded-data axis");
            let work = reduce_scatter(strategy.sdp(), param_bytes_tp, link).time()
                + self.config.comm_overhead;
            let prio = self.next_priority() + GRAD_SYNC_BAND;
            let task = comm_task(s, work, prio, format!("reduce-scatter L{l}"));
            let id = self.graph.add(task);
            self.graph.add_dep(after, id);
        }
        if last_micro && strategy.dp() > 1 {
            let link = strategy
                .paradigm_link(self.topology, Paradigm::Data, base)?
                .expect("dp > 1 implies a data axis");
            let payload = param_bytes_tp.div_ceil(strategy.sdp() as u64);
            let work = all_reduce(strategy.dp(), payload, link).time() + self.config.comm_overhead;
            let prio = self.next_priority() + GRAD_SYNC_BAND;
            let task = comm_task(s, work, prio, format!("dp-allreduce L{l}"));
            let id = self.graph.add(task);
            self.graph.add_dep(after, id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;
    use galvatron_model::PaperModel;

    fn dp8_plan(batch: usize) -> (ModelSpec, ParallelPlan) {
        let model = PaperModel::VitHuge32.spec();
        let plan = ParallelPlan::uniform(
            "dp8",
            model.n_layers(),
            8,
            IntraStageStrategy::pure(Paradigm::Data, 8).unwrap(),
            batch,
        );
        (model, plan)
    }

    #[test]
    fn graph_has_expected_shape_for_pure_dp() {
        let (model, plan) = dp8_plan(32);
        let topo = rtx_titan_node(8);
        let cfg = SimulatorConfig::deterministic();
        let g = build_iteration_graph(&model, &plan, &topo, &cfg).unwrap();
        let n_layers = model.n_layers();
        // fwd + barrier + bwd + one dp-allreduce per layer.
        assert_eq!(g.len(), n_layers + 1 + n_layers + n_layers);
        assert_eq!(g.n_stages(), 1);
        // Initial memory = full replicated model state (16 B/param).
        let expected = model.total_param_count() * 16;
        let diff = g.initial_memory()[0] as i64 - expected as i64;
        assert!(diff.unsigned_abs() < expected / 100);
    }

    #[test]
    fn tp_plans_add_comm_tasks() {
        let model = PaperModel::VitHuge32.spec();
        let plan = ParallelPlan::uniform(
            "tp8",
            model.n_layers(),
            8,
            IntraStageStrategy::pure(Paradigm::Tensor, 8).unwrap(),
            8,
        );
        let topo = rtx_titan_node(8);
        let g =
            build_iteration_graph(&model, &plan, &topo, &SimulatorConfig::deterministic()).unwrap();
        let comm_tasks = g
            .tasks()
            .iter()
            .filter(|t| t.kind == TaskKind::Comm)
            .count();
        // Two passes of all-reduces for every layer with TP collectives.
        let expected = 2 * model
            .layers
            .iter()
            .filter(|l| l.tp_allreduces_per_pass() > 0)
            .count();
        assert_eq!(comm_tasks, expected);
    }

    #[test]
    fn sdp_graphs_bound_transient_coresidency() {
        let model = PaperModel::VitHuge32.spec();
        let plan = ParallelPlan::uniform(
            "sdp8",
            model.n_layers(),
            8,
            IntraStageStrategy::pure(Paradigm::ShardedData, 8).unwrap(),
            16,
        );
        let topo = rtx_titan_node(8);
        let g =
            build_iteration_graph(&model, &plan, &topo, &SimulatorConfig::deterministic()).unwrap();
        // Gathers exist for forward and backward of every layer.
        let gathers = g
            .tasks()
            .iter()
            .filter(|t| t.label.contains("gather L"))
            .count();
        assert_eq!(gathers, 2 * model.n_layers());
        // Prefetch anchoring: all but the first two fwd gathers have deps.
        let dep_counts = g.dep_counts();
        let anchored = g
            .tasks()
            .iter()
            .zip(&dep_counts)
            .filter(|(t, &d)| t.label.starts_with("fwd_gather") && d > 0)
            .count();
        assert_eq!(anchored, model.n_layers() - 2);
    }

    #[test]
    fn simulator_pool_dedupes_across_executions() {
        use crate::{Simulator, SimulatorConfig};
        let model = PaperModel::VitHuge32.spec();
        let plan = ParallelPlan::uniform(
            "dp8",
            model.n_layers(),
            8,
            IntraStageStrategy::pure(Paradigm::Data, 8).unwrap(),
            16,
        );
        let sim = Simulator::new(rtx_titan_node(8), SimulatorConfig::deterministic());
        let created_initial = sim.pool().stats().created;
        assert!(created_initial > 0, "pool pre-created at construction");
        sim.execute(&model, &plan).unwrap();
        let after_first = sim.pool().stats();
        sim.execute(&model, &plan).unwrap();
        let after_second = sim.pool().stats();
        // No group is ever constructed twice; repeat executions are pure
        // cache hits (§4's motivation: NCCL group construction is costly).
        assert_eq!(after_first.created, after_second.created);
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn deterministic_config_is_reproducible() {
        let (model, plan) = dp8_plan(16);
        let topo = rtx_titan_node(8);
        let cfg = SimulatorConfig::default();
        let a = build_iteration_graph(&model, &plan, &topo, &cfg).unwrap();
        let b = build_iteration_graph(&model, &plan, &topo, &cfg).unwrap();
        let wa: Vec<f64> = a.tasks().iter().map(|t| t.work).collect();
        let wb: Vec<f64> = b.tasks().iter().map(|t| t.work).collect();
        assert_eq!(wa, wb);
    }
}
