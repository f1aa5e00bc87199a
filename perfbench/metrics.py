"""Metric definitions: the single source for the report and BENCHMARK.json.

End-to-end metrics come from the untraced run (``--trace 0``) and carry the
bound by which a change may worsen them.  Per-layer metrics come from the
traced run (``--trace 1``); each names the end-to-end metric it should
move, and on which workload, so that a claimed saving can be traced to the
layer that produced it.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# name, unit, better, bound, definition.  On the 2-core VM the benchmark was
# written on, rounds of ten runs spread (quartile distance over median)
# 0.07-0.23 in the time metrics, and medians moved up to 20% between rounds,
# from host speed changes that show within runs and in CPU time too.  Time
# bounds therefore sit near the 0.25 ceiling, and setup_s keeps the largest.
# Memory metrics spread below 0.015.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import of birlab plus the median of several builds of the workload's inputs"),
    ("pass_s", "s", "lower", 0.24,
     "median wall time of one pass"),
    ("point_steps_per_s", "1/s", "higher", 0.24,
     "vectorised row-steps of one pass (a row advanced one map step) per second of pass time"),
    ("peak_rss_bytes", "bytes", "lower", 0.10,
     "peak resident set size of the benchmark process"),
    ("bytes_per_point", "bytes", "lower", 0.10,
     "peak RSS growth over the post-import RSS, per point of the workload's largest batch"),
    ("ok_share", "share", "higher", 0.01,
     "1 - fail_share: operations that neither raised nor failed their output check, per attempted"),
]

# name, unit, better, what it should move
PER_LAYER = [
    ("projective.sample_fs_rows.s", "s", "lower", "cloud pass_s"),
    ("projective.tangent_frames.s", "s", "lower", "cloud pass_s"),
    ("maps.eval_rows.s", "s", "lower", "mixing pass_s, lab pass_s"),
    ("maps.jacobian_rows.s", "s", "lower", "cloud point_steps_per_s, mixing setup_s"),
    ("maps.differential_rows.s", "s", "lower", "cloud point_steps_per_s, mixing setup_s"),
    ("maps.pullback_chain.s", "s", "lower", "cloud point_steps_per_s, mixing setup_s"),
    ("maps.pullback_chain.point_steps_per_s", "1/s", "higher",
     "cloud point_steps_per_s, mixing setup_s"),
    ("maps.pullback_chain.rss_delta_bytes", "bytes", "lower", "cloud/mixing bytes_per_point"),
    ("maps.eval_point.calls", "count", "lower", "pointwise pass_s"),
    ("maps.eval_point.s", "s", "lower", "pointwise pass_s"),
    ("measure.approx_mu.s", "s", "lower", "cloud pass_s"),
    ("measure.approx_T_plus_wedge_omega.s", "s", "lower", "cloud pass_s"),
    ("measure.finalize_self_s", "s", "lower", "cloud pass_s"),
    ("measure.alive_fraction", "share", "higher", "none: a speed-up must leave it unchanged"),
    ("measure.ess_ratio", "share", "higher", "none: a speed-up must leave it unchanged"),
    ("measure.zero_weight_fraction", "share", "lower", "none: a speed-up must leave it unchanged"),
    ("observables.estimate_norm.calls", "count", "lower", "lab pass_s, mixing setup_s"),
    ("observables.estimate_norm.s", "s", "lower", "lab pass_s, mixing setup_s"),
    ("observables.fn.s", "s", "lower", "mixing pass_s"),
    ("mixing.orbit_advance.s", "s", "lower", "mixing pass_s"),
    ("mixing.bootstrap_self_s", "s", "lower", "mixing pass_s"),
    ("mixing.decay_fit.s", "s", "lower", "mixing pass_s"),
    ("mixing.orbit_steps_computed", "count", "lower", "mixing pass_s"),
    ("mixing.orbit_steps_distinct", "count", "lower", "mixing pass_s (base of the waste ratio)"),
    ("mixing.orbit_useful_share", "share", "higher", "mixing pass_s"),
    ("mixing.boot_draws", "count", "lower", "mixing pass_s"),
    ("mixing.insufficient_signal", "count", "lower", "mixing pass_s (known defect count, non-gating)"),
    ("potential.green_plus_henon.points_per_s", "1/s", "higher", "pointwise pass_s, lab pass_s"),
    ("potential.calibrate.s", "s", "lower", "pointwise pass_s, lab pass_s"),
    ("potential.v_n_rows.s", "s", "lower", "pointwise pass_s, lab pass_s"),
    ("potential.chi_A_rows.s", "s", "lower", "pointwise pass_s, lab pass_s"),
    ("potential.shift_calibration_errors", "count", "lower", "none (known defect count, non-gating)"),
    ("genericity.bd_partial_sums.s", "s", "lower", "pointwise pass_s"),
    ("runner.load_config.s", "s", "lower", "lab pass_s"),
    *[(f"runner.run.{exp}.s", "s", "lower", "lab pass_s")
      for exp in ("genericity", "green", "measure", "cn", "correlation")],
    ("runner.bytes_written", "bytes", "lower", "lab pass_s"),
    ("trace.overhead_s", "s", "lower", "none: traced pass_s minus untraced pass_s"),
    ("trace.overhead_share", "share", "lower", "none: trace.overhead_s over untraced pass_s"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
