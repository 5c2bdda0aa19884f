//! One module per paper table/figure plus ablations; each exposes `run()`
//! returning structured results and `render()` producing the printable
//! artifact. The DESIGN.md experiment index maps figures to these modules.

pub mod ablations;
pub mod ext_chaos;
pub mod ext_cluster;
pub mod ext_kvcache;
pub mod ext_memory;
pub mod ext_multisocket;
pub mod ext_resilience;
pub mod ext_speculative;
pub mod ext_trace;
pub mod extensions;
pub mod fig01_gemm;
pub mod fig06_07_footprints;
pub mod fig08_10_cpu_comparison;
pub mod fig11_12_counters;
pub mod fig13_15_numa;
pub mod fig14_16_cores;
pub mod fig17_19_cpu_vs_gpu;
pub mod fig18_offload;
pub mod fig20_21_seqlen;
pub mod tables;

/// The artifact file a section is written to, and the render producing it.
type Section = (&'static str, fn() -> String);

/// The experiment sections in paper order, each tagged with the artifact
/// file [`crate::artifacts::write_all`] writes it to. Sections sharing a file
/// are joined with `"\n"` in this order (Figs 13–16 interleave here but pair
/// as 13+15 and 14+16 on disk). Each section is independent of the others
/// (figures 8–10 share one `CpuComparison::run()` inside a single section),
/// so they can be rendered concurrently and joined in order.
pub(crate) const SECTIONS: &[Section] = &[
    ("table1_cpus.txt", tables::render_table1),
    ("table2_gpus.txt", tables::render_table2),
    ("fig01_gemm.txt", fig01_gemm::render),
    ("fig06_weights.txt", fig06_07_footprints::render_fig6),
    ("fig07_kvcache.txt", fig06_07_footprints::render_fig7),
    ("fig08_10_cpu_comparison.txt", || {
        let cmp = fig08_10_cpu_comparison::CpuComparison::run();
        [
            fig08_10_cpu_comparison::render_fig8(&cmp),
            fig08_10_cpu_comparison::render_fig9(&cmp),
            fig08_10_cpu_comparison::render_fig10(&cmp),
        ]
        .join("\n")
    }),
    ("fig11_12_counters.txt", || {
        fig11_12_counters::render(&fig11_12_counters::run_fig11(), "Fig. 11")
    }),
    ("fig11_12_counters.txt", || {
        fig11_12_counters::render(&fig11_12_counters::run_fig12(), "Fig. 12")
    }),
    ("fig13_15_numa.txt", || {
        fig13_15_numa::render_fig13(&fig13_15_numa::run_fig13())
    }),
    ("fig14_16_cores.txt", || {
        fig14_16_cores::render_fig14(&fig14_16_cores::run_fig14())
    }),
    ("fig13_15_numa.txt", || {
        fig13_15_numa::render_fig15(&fig13_15_numa::run_fig15())
    }),
    ("fig14_16_cores.txt", || {
        fig14_16_cores::render_fig16(&fig14_16_cores::run_fig16())
    }),
    ("fig17_cpu_vs_gpu_b1.txt", || {
        fig17_19_cpu_vs_gpu::render(&fig17_19_cpu_vs_gpu::run(1), "Fig. 17", 1)
    }),
    ("fig18_offload.txt", || {
        fig18_offload::render(&fig18_offload::run())
    }),
    ("fig19_cpu_vs_gpu_b16.txt", || {
        fig17_19_cpu_vs_gpu::render(&fig17_19_cpu_vs_gpu::run(16), "Fig. 19", 16)
    }),
    ("fig20_seqlen_b1.txt", || {
        fig20_21_seqlen::render(&fig20_21_seqlen::run(1), "Fig. 20")
    }),
    ("fig21_seqlen_b16.txt", || {
        fig20_21_seqlen::render(&fig20_21_seqlen::run(16), "Fig. 21")
    }),
    ("ablations.txt", ablations::render),
    ("extensions.txt", extensions::render),
    ("ext_memory.txt", ext_memory::render),
    ("ext_speculative.txt", ext_speculative::render),
    ("ext_resilience.txt", ext_resilience::render),
    ("ext_cluster.txt", ext_cluster::render),
    ("ext_kvcache.txt", ext_kvcache::render),
    ("ext_multisocket.txt", ext_multisocket::render),
    ("ext_trace.txt", ext_trace::render),
    ("ext_chaos.txt", ext_chaos::render),
];

/// Renders every section of [`SECTIONS`] across `workers` threads and
/// returns the texts in paper order. Output is byte-identical to the serial
/// rendering: workers claim sections through an atomic cursor, publish into
/// disjoint [`std::sync::OnceLock`] slots, and the slots are read back in
/// paper order.
///
/// # Panics
///
/// Panics if `workers` is zero or a section panics.
pub(crate) fn render_sections(workers: usize) -> Vec<String> {
    assert!(workers > 0, "need at least one worker");
    let slots: Vec<std::sync::OnceLock<String>> = (0..SECTIONS.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers.min(SECTIONS.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= SECTIONS.len() {
                    break;
                }
                let text = SECTIONS[i].1();
                slots[i]
                    .set(text)
                    .unwrap_or_else(|_| panic!("section {i} rendered twice"));
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every section was rendered"))
        .collect()
}

/// Renders every experiment in paper order (the `all_experiments` binary)
/// across `workers` threads, joining the sections with `"\n"`.
///
/// # Panics
///
/// Panics if `workers` is zero or a section panics.
#[must_use]
pub fn render_all_with_workers(workers: usize) -> String {
    render_sections(workers).join("\n")
}

/// Default worker count for [`render_all`]: the machine's parallelism,
/// capped by the number of sections.
#[must_use]
pub fn default_render_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders every experiment in paper order using the default worker count.
#[must_use]
pub fn render_all() -> String {
    render_all_with_workers(default_render_workers())
}

#[cfg(test)]
mod render_all_tests {
    use super::*;

    #[test]
    fn parallel_render_is_byte_identical_to_serial() {
        let serial = render_all_with_workers(1);
        let parallel = render_all_with_workers(8);
        assert_eq!(serial, parallel);
        // Sections land in paper order regardless of completion order.
        let t1 = serial.find("Table I").expect("Table I present");
        let fig20 = serial.find("Fig. 20").expect("Fig. 20 present");
        assert!(t1 < fig20);
    }
}
