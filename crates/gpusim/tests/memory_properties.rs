//! Property-based tests of the device memory manager and the machine's
//! conservation laws under random task sequences.

use proptest::prelude::*;

use micco_gpusim::{
    DeviceMemory, Evicted, EvictionPolicy, GpuId, MachineConfig, MachineView, Provenance,
    SimMachine,
};
use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId};

#[derive(Debug, Clone)]
enum MemOp {
    Alloc {
        id: u64,
        bytes: u64,
        device_created: bool,
    },
    Touch {
        id: u64,
    },
    Discard {
        id: u64,
    },
    Unpin {
        id: u64,
    },
    Pin {
        id: u64,
    },
    SetNextUse {
        id: u64,
        next_use: u64,
    },
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0u64..40, 1u64..50, any::<bool>()).prop_map(|(id, bytes, device_created)| MemOp::Alloc {
            id,
            bytes,
            device_created
        }),
        (0u64..40).prop_map(|id| MemOp::Touch { id }),
        (0u64..40).prop_map(|id| MemOp::Discard { id }),
        (0u64..40).prop_map(|id| MemOp::Unpin { id }),
        (0u64..40).prop_map(|id| MemOp::Pin { id }),
        (0u64..40, next_use()).prop_map(|(id, next_use)| MemOp::SetNextUse { id, next_use }),
    ]
}

/// Next-use positions with frequent ties, including "never again".
fn next_use() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, Just(u64::MAX)]
}

fn policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::Fifo),
        Just(EvictionPolicy::LargestFirst),
        Just(EvictionPolicy::Clairvoyant),
    ]
}

/// One tensor of [`ReferenceMemory`].
#[derive(Debug, Clone, Copy)]
struct RefTensor {
    bytes: u64,
    last_use: u64,
    allocated_at: u64,
    next_use: u64,
    pinned: bool,
    writeback: bool,
}

/// Reference model of `DeviceMemory`: a map of resident tensors and a
/// plain linear `min_by_key` over it for every victim.
struct ReferenceMemory {
    capacity: u64,
    policy: EvictionPolicy,
    clock: u64,
    tensors: std::collections::HashMap<u64, RefTensor>,
}

impl ReferenceMemory {
    fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        ReferenceMemory {
            capacity,
            policy,
            clock: 0,
            tensors: Default::default(),
        }
    }

    fn used(&self) -> u64 {
        self.tensors.values().map(|t| t.bytes).sum()
    }

    /// The victim: the unpinned tensor with the smallest policy key.
    fn victim(&self) -> Option<u64> {
        let key = |id: u64, t: &RefTensor| match self.policy {
            EvictionPolicy::Lru => (t.last_use, 0, id),
            EvictionPolicy::Fifo => (t.allocated_at, 0, id),
            EvictionPolicy::LargestFirst => (u64::MAX - t.bytes, 0, id),
            EvictionPolicy::Clairvoyant => (u64::MAX - t.next_use, t.last_use, id),
        };
        self.tensors
            .iter()
            .filter(|(_, t)| !t.pinned)
            .min_by_key(|(&id, t)| key(id, t))
            .map(|(&id, _)| id)
    }

    /// Victims in eviction order, or `None` if the request cannot fit.
    fn allocate(&mut self, id: u64, bytes: u64, writeback: bool) -> Option<Vec<Evicted>> {
        let used = self.used();
        let pinned: u64 = self
            .tensors
            .values()
            .filter(|t| t.pinned)
            .map(|t| t.bytes)
            .sum();
        if bytes > self.capacity - pinned {
            return None;
        }
        let mut evicted = Vec::new();
        let mut free = self.capacity - used;
        while free < bytes {
            let (victim, t) = self
                .victim()
                .and_then(|v| self.tensors.remove_entry(&v))
                .expect("evictable bytes were sufficient");
            free += t.bytes;
            evicted.push(Evicted {
                id: TensorId(victim),
                bytes: t.bytes,
                writeback: t.writeback,
            });
        }
        self.clock += 1;
        self.tensors.insert(
            id,
            RefTensor {
                bytes,
                last_use: self.clock,
                allocated_at: self.clock,
                next_use: u64::MAX,
                pinned: true,
                writeback,
            },
        );
        Some(evicted)
    }
}

/// Apply `ops` to a `DeviceMemory` and to [`ReferenceMemory`] side by side
/// and assert that every allocation evicts exactly the reference's victims,
/// in the reference's order. Returns the number of evictions.
fn assert_victims_match_reference(policy: EvictionPolicy, capacity: u64, ops: &[MemOp]) -> usize {
    let mut m = DeviceMemory::new(capacity, policy);
    let mut r = ReferenceMemory::new(capacity, policy);
    let mut evictions = 0;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            MemOp::Alloc {
                id,
                bytes,
                device_created,
            } => {
                if m.holds(TensorId(id)) {
                    continue;
                }
                let prov = if device_created {
                    Provenance::DeviceCreated
                } else {
                    Provenance::HostBacked
                };
                let got = m.allocate(TensorId(id), bytes, prov).ok();
                let want = r.allocate(id, bytes, device_created);
                assert_eq!(got, want, "{policy:?} op {i}: {op:?}");
                evictions += want.map_or(0, |v| v.len());
            }
            MemOp::Touch { id } => {
                m.touch(TensorId(id));
                r.clock += 1;
                if let Some(t) = r.tensors.get_mut(&id) {
                    t.last_use = r.clock;
                }
            }
            MemOp::Discard { id } => {
                assert_eq!(m.discard(TensorId(id)), r.tensors.remove(&id).is_some());
            }
            MemOp::Unpin { id } | MemOp::Pin { id } => {
                let pinned = matches!(op, MemOp::Pin { .. });
                m.set_pinned(TensorId(id), pinned);
                if let Some(t) = r.tensors.get_mut(&id) {
                    t.pinned = pinned;
                }
            }
            MemOp::SetNextUse { id, next_use } => {
                m.set_next_use(TensorId(id), next_use);
                if let Some(t) = r.tensors.get_mut(&id) {
                    t.next_use = next_use;
                }
            }
        }
        assert_eq!(m.used(), r.used(), "{policy:?} op {i}");
        assert_eq!(m.resident_count(), r.tensors.len(), "{policy:?} op {i}");
    }
    evictions
}

/// Deterministic op stream for the long-churn case: a small device over a
/// wide id range where most allocations are unpinned right after (as a
/// finished task does), touch-heavy so stale heap entries pile up and force
/// repeated rebuilds.
fn churn_ops(seed: u64, len: usize) -> Vec<MemOp> {
    let mut state = seed;
    let mut next = move |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let id = next(150);
        match next(10) {
            0..=3 => {
                ops.push(MemOp::Alloc {
                    id,
                    bytes: 1 + next(60),
                    device_created: next(2) == 0,
                });
                if next(4) != 0 {
                    ops.push(MemOp::Unpin { id });
                }
            }
            4..=6 => ops.push(MemOp::Touch { id }),
            7 => ops.push(MemOp::Unpin { id }),
            8 => ops.push(MemOp::Pin { id }),
            _ => ops.push(match next(3) {
                0 => MemOp::Discard { id },
                _ => MemOp::SetNextUse {
                    id,
                    next_use: if next(4) == 0 { u64::MAX } else { next(16) },
                },
            }),
        }
    }
    ops
}

#[test]
fn long_churn_victim_order_matches_linear_reference() {
    let ops = churn_ops(12, 10_000);
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::Clairvoyant,
    ] {
        let evictions = assert_victims_match_reference(policy, 1_500, &ops);
        assert!(evictions > 400, "{policy:?}: only {evictions} evictions");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any op sequence and any policy: used ≤ capacity, used equals
    /// the sum of resident bytes, and alloc never reports success while
    /// violating capacity.
    #[test]
    fn device_memory_invariants(
        ops in proptest::collection::vec(mem_op(), 1..120),
        policy in policy(),
        capacity in 50u64..200,
    ) {
        let mut m = DeviceMemory::new(capacity, policy);
        let mut resident_bytes: std::collections::HashMap<TensorId, u64> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                MemOp::Alloc { id, bytes, device_created } => {
                    let id = TensorId(id);
                    if m.holds(id) {
                        m.touch(id);
                        continue;
                    }
                    let prov = if device_created {
                        Provenance::DeviceCreated
                    } else {
                        Provenance::HostBacked
                    };
                    if let Ok(evicted) = m.allocate(id, bytes, prov) {
                        for ev in &evicted {
                            let removed = resident_bytes.remove(&ev.id);
                            prop_assert_eq!(removed, Some(ev.bytes), "evicted ghost tensor");
                        }
                        resident_bytes.insert(id, bytes);
                        // allocations arrive pinned; unpin later via op
                    }
                }
                MemOp::Touch { id } => m.touch(TensorId(id)),
                MemOp::Discard { id } => {
                    let id = TensorId(id);
                    let did = m.discard(id);
                    prop_assert_eq!(did, resident_bytes.remove(&id).is_some());
                }
                MemOp::Unpin { id } => m.set_pinned(TensorId(id), false),
                MemOp::Pin { id } => m.set_pinned(TensorId(id), true),
                MemOp::SetNextUse { id, next_use } => m.set_next_use(TensorId(id), next_use),
            }
            prop_assert!(m.used() <= m.capacity(), "over capacity");
            let expect: u64 = resident_bytes.values().sum();
            prop_assert_eq!(m.used(), expect, "byte accounting drifted");
            prop_assert_eq!(m.resident_count(), resident_bytes.len());
        }
    }

    /// Every allocation evicts exactly the victims a linear scan over the
    /// resident tensors picks, in the same order, under every policy.
    #[test]
    fn victim_order_matches_linear_reference(
        ops in proptest::collection::vec(mem_op(), 1..300),
        policy in policy(),
        capacity in 50u64..200,
    ) {
        assert_victims_match_reference(policy, capacity, &ops);
    }

    /// The machine's clocks are monotone, memory bounded, and stats
    /// consistent for arbitrary random placements.
    #[test]
    fn machine_conservation(
        placements in proptest::collection::vec((0u64..30, 0u64..30, 0usize..4, any::<bool>()), 1..80),
        policy in policy(),
    ) {
        const MB: u64 = 1 << 20;
        let cfg = MachineConfig {
            num_gpus: 4,
            mem_bytes: 8 * MB,
            cost: Default::default(),
            eviction: policy,
        };
        let mut machine = SimMachine::new(cfg);
        let mut prev_elapsed = 0.0f64;
        let mut executed = 0u64;
        for (i, (a, b, gpu, barrier)) in placements.into_iter().enumerate() {
            let t = ContractionTask {
                id: TaskId(i as u64),
                a: TensorDesc { id: TensorId(a), bytes: MB },
                b: TensorDesc { id: TensorId(b), bytes: MB },
                out: TensorDesc { id: TensorId(10_000 + i as u64), bytes: MB },
                flops: 1_000_000,
            };
            machine.execute(&t, GpuId(gpu)).expect("8 MB fits any 3 MB task");
            executed += 1;
            for g in 0..4 {
                prop_assert!(machine.mem_used(GpuId(g)) <= cfg.mem_bytes);
                prop_assert!(machine.device_time(GpuId(g)) >= 0.0);
                prop_assert!(machine.stage_busy_secs(GpuId(g)) >= 0.0);
            }
            if barrier {
                machine.barrier();
                let elapsed = machine.stats().elapsed_secs;
                prop_assert!(elapsed >= prev_elapsed, "clock went backwards");
                prev_elapsed = elapsed;
                // after a barrier all devices agree
                let t0 = machine.device_time(GpuId(0));
                for g in 1..4 {
                    prop_assert!((machine.device_time(GpuId(g)) - t0).abs() < 1e-12);
                }
            }
        }
        machine.barrier();
        let stats = machine.stats();
        prop_assert_eq!(stats.total_tasks(), executed);
        prop_assert_eq!(
            stats.total_h2d() + stats.total_d2d() + stats.total_reuse_hits(),
            2 * executed,
            "operand sourcing identity"
        );
        // busy time of any device never exceeds total elapsed
        for g in &stats.per_gpu {
            prop_assert!(g.busy_secs() <= stats.elapsed_secs + 1e-9);
        }
    }

    /// `bytes_needed`/`would_evict` agree with what execution then does:
    /// if `would_evict` is false, executing must not evict.
    #[test]
    fn would_evict_is_sound(
        placements in proptest::collection::vec((0u64..20, 0u64..20), 1..40),
    ) {
        const MB: u64 = 1 << 20;
        let cfg = MachineConfig::mi100_like(2).with_mem_bytes(10 * MB);
        let mut machine = SimMachine::new(cfg);
        machine.enable_trace();
        for (i, (a, b)) in placements.into_iter().enumerate() {
            let t = ContractionTask {
                id: TaskId(i as u64),
                a: TensorDesc { id: TensorId(a), bytes: MB },
                b: TensorDesc { id: TensorId(b), bytes: MB },
                out: TensorDesc { id: TensorId(30_000 + i as u64), bytes: MB },
                flops: 1,
            };
            let predicted = machine.would_evict(GpuId(0), &t);
            let before = machine.stats().total_evictions();
            machine.execute(&t, GpuId(0)).unwrap();
            let evicted = machine.stats().total_evictions() - before;
            if !predicted {
                prop_assert_eq!(evicted, 0, "predicted no eviction but evicted");
            } else {
                prop_assert!(evicted > 0, "predicted eviction but none happened");
            }
        }
    }
}
