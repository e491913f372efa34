"""Workloads, pipeline stages and output checks of the benchmark.

Every workload runs the whole PLAS pipeline through ``plas``'s public
functions: generate datasets, round-trip them through files, fit the behaviour
CVAE, train PLAS through the frozen decoder, train the unconstrained learner,
evaluate the policy, grade its critic and its support, and run the MMD study.
The workloads differ in network sizes, step counts and in which stages run in
set-up rather than in the timed part. A stage's end-to-end figure comes from
its timed runs when it is timed and from its set-up runs otherwise.

Calls go through module attributes (``agent.train_plas``), so the tracer's
wrappers see them.
"""
from __future__ import annotations

import json
import math
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plas import agent, baselines, cvae, data, diagnostics, envs, generators, mmd, nets

from .trace import LayerMetric, Tracer, installed, layer_values

STAGES = ("generate", "io", "cvae", "plas", "baseline", "eval", "analysis", "mmd")
SETUPS = 4  # set-ups per untraced run; setup_s is their median
PERTURBATION_EPSILON = 0.05
MMD_KERNELS = mmd.default_kernels()

# On a shared host the machine's speed can drift by +-20% over tens of seconds,
# the same for every stage of a round. Each stage is therefore bracketed by a
# fixed calibration loop, and its time is scaled by CALIBRATION_REF_S over the
# mean of the two loop times: the time the stage would take at the reference
# speed. The loop calls no plas code, so plas changes move adjusted times fully.
CALIBRATION_REF_S = 0.025
_CAL = np.random.default_rng(0)
_CAL_SMALL, _CAL_W = _CAL.standard_normal((100, 64)), _CAL.standard_normal((64, 64))
_CAL_WIDE, _CAL_SQUARE = _CAL.standard_normal((100, 300)), _CAL.standard_normal((300, 300))
_CAL_ROW = _CAL.standard_normal(1_000).tolist()


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy ops, GEMMs, exp, JSON and Python."""
    start = time.perf_counter()
    for _ in range(200):
        h = np.maximum(_CAL_SMALL @ _CAL_W.T + 0.1, 0.0)
        h.sum(axis=0)
        np.exp(-h)
    for _ in range(20):
        _CAL_WIDE @ _CAL_SQUARE
    for _ in range(5):
        json.loads(json.dumps(_CAL_ROW))
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: tuple[tuple[str, str, int], ...]  # (env, kind, rows); [0] trains, [1] is a reference
    cvae_hidden: tuple[int, ...]
    cvae_steps: int
    policy_hidden: tuple[int, ...]  # actor, critics and residual head
    plas_steps: int
    baseline_steps: int
    eval_episodes: int
    qerror_episodes: int
    support_probes: int
    mmd_samples: int
    mmd_repeats: int
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    check_claim: bool = False  # PLAS beats the unconstrained learner on support and Q

    @property
    def env(self) -> str:
        return self.datasets[0][0]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-train",
            why="paper sizes (CVAE 750x750, policy 400x300): GEMM FLOPs, Adam/Polyak bytes "
                "and params_hash on large nets set the time",
            datasets=(("edge-follow", "bimodal", 20_000), ("edge-follow", "random", 2_000)),
            cvae_hidden=(750, 750), cvae_steps=50,
            policy_hidden=(400, 300), plas_steps=50, baseline_steps=25,
            eval_episodes=30, qerror_episodes=5, support_probes=100,
            mmd_samples=200, mmd_repeats=4,
            setup=("generate", "io"),
            timed=("cvae", "plas", "baseline", "eval", "analysis", "mmd"),
        ),
        Workload(
            name="desk-train",
            why="desk sizes (64x64): call count, validation and allocation per step set the "
                "time; the unconstrained learner shares critic_step but skips the decoder",
            datasets=(("edge-follow", "bimodal", 20_000), ("edge-follow", "random", 2_000)),
            cvae_hidden=(64, 64), cvae_steps=400,
            policy_hidden=(64, 64), plas_steps=400, baseline_steps=400,
            eval_episodes=100, qerror_episodes=10, support_probes=300,
            mmd_samples=200, mmd_repeats=4,
            setup=("generate", "io"),
            timed=("cvae", "plas", "baseline", "eval", "analysis", "mmd"),
            check_claim=True,
        ),
        Workload(
            name="desk-analysis",
            why="no gradient steps timed: batch-1 forwards, dataset generation and files, "
                "diagnostics and the MMD study; per-call cost shows here, batching does not",
            datasets=(("point-mass", "expert", 5_000), ("point-mass", "random", 5_000),
                      ("edge-follow", "bimodal", 5_000)),
            cvae_hidden=(64, 64), cvae_steps=300,
            policy_hidden=(64, 64), plas_steps=300, baseline_steps=300,
            eval_episodes=50, qerror_episodes=20, support_probes=300,
            mmd_samples=500, mmd_repeats=2,
            setup=("generate", "cvae", "plas", "baseline"),
            timed=("generate", "io", "eval", "analysis", "mmd"),
        ),
    )
}


def _layer(name, unit, spans, stage, quantity, per, where=()):
    spans = (spans,) if isinstance(spans, str) else spans
    return LayerMetric(name, unit, spans, stage, quantity, per, where)


# Per-step figures are per gradient step of the named stage; "exec" figures are
# per execution of the stage; "call" figures are per matching call.
LAYER_METRICS = (
    _layer("nets.mlp_forward.calls_per_step", "count", "nets.mlp_forward", "plas", "calls", "step"),
    _layer("nets.mlp_forward.self_ms_per_step", "ms", "nets.mlp_forward", "plas", "self", "step"),
    _layer("nets.mlp_backward.calls_per_step", "count", "nets.mlp_backward", "plas", "calls", "step"),
    _layer("nets.mlp_backward.self_ms_per_step", "ms", "nets.mlp_backward", "plas", "self", "step"),
    _layer("nets.adam_step.calls_per_step", "count", "nets.adam_step", "plas", "calls", "step"),
    _layer("nets.adam_step.self_ms_per_step", "ms", "nets.adam_step", "plas", "self", "step"),
    _layer("nets.polyak_update.calls_per_step", "count", "nets.polyak_update", "plas", "calls", "step"),
    _layer("nets.polyak_update.self_ms_per_step", "ms", "nets.polyak_update", "plas", "self", "step"),
    _layer("nets.adam_mb_per_step", "MB", "nets.adam_step", "plas", "bytes", "step"),
    _layer("nets.polyak_mb_per_step", "MB", "nets.polyak_update", "plas", "bytes", "step"),
    _layer("nets.gemm_mflop_per_step", "MFLOP", ("nets.mlp_forward", "nets.mlp_backward"),
           "plas", "flop", "step"),
    _layer("nets.params_hash.calls", "count", "nets.params_hash", "plas", "calls", "exec"),
    _layer("nets.params_hash.self_s", "s", "nets.params_hash", "plas", "self", "exec"),
    _layer("cvae.FrozenDecoder.backward.self_ms_per_step", "ms", "cvae.FrozenDecoder.backward",
           "plas", "self", "step"),
    _layer("cvae.elbo_loss_and_grads.self_ms_per_step", "ms", "cvae.elbo_loss_and_grads",
           "cvae", "self", "step"),
    _layer("cvae.train_cvae.gemm_mflop_per_step", "MFLOP", ("nets.mlp_forward", "nets.mlp_backward"),
           "cvae", "flop", "step"),
    _layer("cvae.train_cvae.adam_mb_per_step", "MB", "nets.adam_step", "cvae", "bytes", "step"),
    _layer("agent.critic_update.ms_per_step", "ms", "agent.critic_update", "plas", "total", "step"),
    _layer("agent.compute_target.self_ms_per_step", "ms", "agent.compute_target", "plas", "self", "step"),
    _layer("agent.critic_step.self_ms_per_step", "ms", "agent.critic_step", "plas", "self", "step"),
    _layer("agent.actor_update.self_ms_per_step", "ms", "agent.actor_update", "plas", "self", "step"),
    _layer("data.sample_batch.self_ms_per_step", "ms", "data.sample_batch", "plas", "self", "step"),
    _layer("baselines.unconstrained_update.ms_per_step", "ms", "baselines.unconstrained_update",
           "baseline", "total", "step"),
    _layer("baselines.direct_actor_update.self_ms_per_step", "ms", "baselines.direct_actor_update",
           "baseline", "self", "step"),
    _layer("agent.act.us_per_call", "us", "agent.act", "eval", "total", "call"),
    _layer("nets.mlp_forward.us_per_call_b1", "us", "nets.mlp_forward", "eval", "total", "call",
           (("rows", 1),)),
    _layer("cvae.FrozenDecoder.forward.us_per_call_b1", "us", "cvae.FrozenDecoder.forward",
           "eval", "total", "call", (("rows", 1),)),
    _layer("data.save_dataset.self_s", "s", "data.save_dataset", "io", "self", "exec"),
    _layer("data.load_dataset.self_s", "s", "data.load_dataset", "io", "self", "exec"),
    _layer("data.content_hash.self_s", "s", "data.content_hash", "io", "self", "exec"),
    _layer("envs.rollout.self_s", "s", "envs.rollout", "generate", "self", "exec"),
    _layer("envs.env_steps", "count", "envs.env_steps", "generate", "count", "exec"),
    _layer("envs.clip_fraction", "fraction", "stage.generate", "generate", "clip_warnings",
           "envs.env_steps"),
    _layer("generators.generate_dataset.self_s", "s", "generators.generate_dataset",
           "generate", "self", "exec"),
    _layer("generators.make_bimodal_dataset.self_s", "s", "generators.make_bimodal_dataset",
           "generate", "self", "exec"),
    _layer("diagnostics.q_error_report.self_s", "s", "diagnostics.q_error_report",
           "analysis", "self", "exec"),
    _layer("diagnostics.support_threshold.self_s", "s", "diagnostics.support_threshold",
           "analysis", "self", "exec"),
    _layer("diagnostics.support_distance.self_s", "s", "diagnostics.support_distance",
           "analysis", "self", "exec"),
    _layer("mmd.run_scenario.scenario1.self_s", "s", "mmd.run_scenario", "mmd", "self", "exec",
           (("scenario", "scenario1-scale"),)),
    _layer("mmd.run_scenario.scenario2.self_s", "s", "mmd.run_scenario", "mmd", "self", "exec",
           (("scenario", "scenario2-bimodal"),)),
    _layer("mmd.kernel_evals", "count", "mmd.run_scenario", "mmd", "kernel_evals", "exec"),
)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_pct", "%"))

# End-to-end metric -> (stage, figure); figure "rate" is work per second of the
# stage, "seconds" its duration.
STAGE_METRICS = {
    "cvae_steps_per_s": ("cvae", "rate", "1/s"),
    "plas_steps_per_s": ("plas", "rate", "1/s"),
    "baseline_steps_per_s": ("baseline", "rate", "1/s"),
    "eval_env_steps_per_s": ("eval", "rate", "1/s"),
    "dataset_rows_per_s": ("generate", "rate", "1/s"),
    "dataset_io_s": ("io", "seconds", "s"),
    "mmd_study_s": ("mmd", "seconds", "s"),
}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")) + tuple(
    (name, unit) for name, (_, _, unit) in STAGE_METRICS.items())


class CheckFailed(Exception):
    pass


@dataclass
class Context:
    """State one pipeline (a set-up and the rounds that use it) passes along."""

    workload: Workload
    seed: int
    workdir: Path
    datasets: list = field(default_factory=list)
    decoder: object = None
    cvae_model: object = None
    plas_agent: object = None
    baseline: object = None
    outputs: dict = field(default_factory=dict)  # learning results, compared across pipelines

    @property
    def train(self):
        return self.datasets[0]

    def rng(self, stage: str, k: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, STAGES.index(stage), k])

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            raise CheckFailed(f"{name} failed {detail}".rstrip())


# -- stages: each returns its units of work -----------------------------------

def _generate(ctx: Context) -> int:
    ctx.datasets = []
    for i, (env_name, kind, rows) in enumerate(ctx.workload.datasets):
        seed = ctx.seed * 100 + i
        if kind == "bimodal":
            ds = generators.make_bimodal_dataset(rows, seed)
        else:
            ds = generators.generate_dataset(envs.make_env(env_name), kind, rows, seed)
        ctx.datasets.append(ds)
    return sum(len(ds) for ds in ctx.datasets)


def _io(ctx: Context) -> int:
    hashes = []
    for i, ds in enumerate(ctx.datasets):
        path = ctx.workdir / f"dataset{i}.jsonl"
        data.save_dataset(path, ds)
        before, after = ds.content_hash(), data.load_dataset(path).content_hash()
        ctx.check("io.content_hash_round_trip", before == after, f"for dataset {i}")
        hashes.append(before)
    ctx.outputs["dataset_hashes"] = hashes
    return sum(len(ds) for ds in ctx.datasets)


def _cvae(ctx: Context) -> int:
    w = ctx.workload
    config = cvae.CvaeTrainConfig(steps=w.cvae_steps, hidden_sizes=w.cvae_hidden,
                                  log_every=w.cvae_steps)
    ctx.cvae_model, reports = cvae.train_cvae(ctx.train, config, ctx.rng("cvae"))
    ctx.decoder = cvae.FrozenDecoder(ctx.cvae_model)
    ctx.outputs["cvae_loss"] = reports[-1].total
    return w.cvae_steps


def _plas(ctx: Context) -> int:
    w = ctx.workload
    config = agent.PlasTrainConfig(steps=w.plas_steps, hidden_sizes=w.policy_hidden,
                                   perturbation_epsilon=PERTURBATION_EPSILON,
                                   log_every=w.plas_steps)
    ctx.plas_agent, log = agent.train_plas(ctx.train, ctx.decoder, config, ctx.rng("plas"))
    ctx.outputs["plas_critic_loss"] = log[-1].critic_loss
    return w.plas_steps


def _baseline(ctx: Context) -> int:
    w = ctx.workload
    config = baselines.UnconstrainedTrainConfig(steps=w.baseline_steps,
                                                hidden_sizes=w.policy_hidden,
                                                log_every=w.baseline_steps)
    ctx.baseline, _ = baselines.train_unconstrained(ctx.train, config, ctx.rng("baseline"))
    return w.baseline_steps


def _eval(ctx: Context) -> int:
    policy = ctx.plas_agent.policy_fn()
    env_steps = 0

    def counted(state):
        nonlocal env_steps
        env_steps += 1
        return policy(state)

    mean, _ = envs.evaluate_policy(envs.make_env(ctx.workload.env), counted,
                                   ctx.workload.eval_episodes, ctx.rng("eval"))
    ctx.outputs["eval_return"] = mean
    ctx.check("eval.return_finite", math.isfinite(mean), f"(got {mean})")
    return env_steps


def _analysis(ctx: Context) -> int:
    w, train = ctx.workload, ctx.train
    env = envs.make_env(w.env)
    gamma = ctx.plas_agent.critics.gamma
    threshold = diagnostics.support_threshold(train, seed=ctx.seed)
    probes = train.states[ctx.rng("analysis").integers(0, len(train), w.support_probes)]
    plas_actions = np.stack([agent.act(ctx.plas_agent, s) for s in probes])
    base_actions = ctx.baseline.action(probes)
    ref = ctx.datasets[1]
    violation = {
        "plas": diagnostics.support_distance(train, probes, plas_actions).violation_rate(threshold),
        "unconstrained": diagnostics.support_distance(train, probes, base_actions)
        .violation_rate(threshold),
        "reference": diagnostics.support_distance(train, ref.states, ref.actions)
        .violation_rate(threshold),
    }
    q_plas = diagnostics.q_error_report(ctx.plas_agent, env, w.qerror_episodes, gamma,
                                        ctx.rng("analysis", 1))
    q_base = diagnostics.q_error_report(ctx.baseline, env, w.qerror_episodes, gamma,
                                        ctx.rng("analysis", 2))
    mean_q = float(np.mean(agent.q_values(ctx.plas_agent.critics.q1, probes, plas_actions)))
    ctx.outputs.update({
        "support_violation": violation,
        "overestimate_fraction": {"plas": q_plas.positive_error_pct,
                                  "unconstrained": q_base.positive_error_pct},
        "q_error_mse": {"plas": q_plas.mse, "unconstrained": q_base.mse},
        "plas_mean_q": mean_q,
    })
    ctx.check("analysis.plas_q_error_finite", math.isfinite(q_plas.mse), f"(got {q_plas.mse})")
    if w.check_claim:
        bound = env.return_upper_bound(gamma)
        ctx.check("claim.support_violation", violation["plas"] < violation["unconstrained"],
                  f"(plas {violation['plas']} vs unconstrained {violation['unconstrained']})")
        ctx.check("claim.overestimate_fraction",
                  q_plas.positive_error_pct < q_base.positive_error_pct,
                  f"(plas {q_plas.positive_error_pct} vs unconstrained {q_base.positive_error_pct})")
        ctx.check("claim.mean_q_bounded", mean_q <= bound, f"(mean Q {mean_q} > {bound})")
    return w.support_probes


def _mmd(ctx: Context) -> int:
    w = ctx.workload
    argmins = {}
    for scenario in (mmd.scenario_matched_scale(w.mmd_samples, w.mmd_repeats),
                     mmd.scenario_bimodal_hole(w.mmd_samples, w.mmd_repeats)):
        curves = mmd.run_scenario(scenario, MMD_KERNELS, seed=ctx.seed)
        argmins[scenario.name] = {c.kernel.label: c.argmin_x() for c in curves}
    ctx.outputs["mmd_argmin"] = argmins
    scale, hole = argmins["scenario1-scale"], argmins["scenario2-bimodal"]
    ctx.check("mmd.scenario1_matched_scale",
              all(0.8 <= scale[k] <= 1.2 for k in ("gaussian-1", "laplacian-1")), f"({scale})")
    ctx.check("mmd.scenario2_hole", abs(hole["gaussian-3"]) <= 0.2, f"({hole['gaussian-3']})")
    return 2 * w.mmd_repeats


STAGE_FUNCS = {"generate": _generate, "io": _io, "cvae": _cvae, "plas": _plas,
               "baseline": _baseline, "eval": _eval, "analysis": _analysis, "mmd": _mmd}


# -- running ------------------------------------------------------------------

@dataclass
class StageRun:
    phase: str  # "setup" or "round"
    stage: str
    seconds: float  # wall clock
    adjusted: float  # scaled to the reference host speed
    work: int
    traced: bool


@dataclass
class Result:
    workload: Workload
    stage_runs: list[StageRun] = field(default_factory=list)
    # adjusted times (see CALIBRATION_REF_S) of untraced set-ups, and of rounds
    # keyed by whether they were traced
    setup_walls: list[float] = field(default_factory=list)
    round_walls: dict = field(default_factory=lambda: {False: [], True: []})
    fingerprints: dict = field(default_factory=dict)  # kind -> first fingerprint
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def fingerprint(ctx: Context, hashes: bool = True) -> dict:
    """Learning results and parameter hashes; equal for every pipeline of one seed."""
    fp = {"outputs": dict(ctx.outputs)}
    if not hashes:
        return fp
    if ctx.cvae_model is not None:
        fp["cvae_hash"] = cvae.cvae_hash(ctx.cvae_model)
    if ctx.plas_agent is not None:
        fp["agent_hash"] = agent.agent_hash(ctx.plas_agent)
    if ctx.baseline is not None:
        b = ctx.baseline
        fp["baseline_hash"] = nets.params_hash(b.actor, b.critics.q1, b.critics.q2)
    return fp


def _run_stages(result: Result, ctx: Context, phase: str, stages, tracer: Tracer | None) -> float:
    """Runs the stages in order; returns their summed adjusted time."""
    total = 0.0
    before = calibrate()
    for stage in stages:
        result.attempted += 1
        clips = envs.clip_warning_count()
        scope = tracer.stage(stage) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with scope as span:
            work = STAGE_FUNCS[stage](ctx)
        seconds = time.perf_counter() - t0
        after = calibrate()
        adjusted = seconds * CALIBRATION_REF_S / (0.5 * (before + after))
        before = after
        if span is not None:
            span.attrs.update(steps=work, clip_warnings=envs.clip_warning_count() - clips)
        result.stage_runs.append(StageRun(phase, stage, seconds, adjusted, work,
                                          tracer is not None))
        total += adjusted
    return total


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Untraced: SETUPS set-ups, each followed by a timed round, then more
    rounds until ``seconds`` have passed. Traced: pairs of whole pipelines
    (set-up and one round), untraced then traced, until ``seconds`` have
    passed. Every pipeline of the run must give the same fingerprint. A stage
    that raises or fails a check ends the run.
    """
    result = Result(workload, tracer=Tracer() if trace else None)

    def pipeline(traced: bool, with_round: bool) -> Context:
        ctx = Context(workload, seed, workdir)
        tracer = result.tracer if traced else None
        with installed(tracer) if traced else nullcontext():
            wall = _run_stages(result, ctx, "setup", workload.setup, tracer)
            if not traced:
                result.setup_walls.append(wall)
            if with_round:
                wall = _run_stages(result, ctx, "round", workload.timed, tracer)
                result.round_walls[traced].append(wall)
        return ctx

    def record(ctx: Context, kind: str) -> None:
        # hashing paper-size nets takes seconds: untraced rounds after the
        # first compare their learning results only
        first = result.fingerprints.get(kind)
        fp = fingerprint(ctx, hashes=trace or first is None)
        if first is None:
            result.fingerprints[kind] = fp
        else:
            result.attempted += 1
            if any(fp[k] != first[k] for k in fp):
                result.failed += 1
                result.errors.append(f"{kind} outputs differ between runs of one seed: "
                                     f"{first} vs {fp}")

    try:
        if trace:
            start = time.perf_counter()
            while True:
                for traced in (False, True):
                    record(pipeline(traced, with_round=True), "pipeline")
                if time.perf_counter() - start >= seconds:
                    break
        else:
            # set-ups alternate with the first rounds, so that both sample the
            # host's speed over the same stretch of the run
            start = time.perf_counter()
            while len(result.setup_walls) < SETUPS or time.perf_counter() - start < seconds:
                if len(result.setup_walls) < SETUPS:
                    ctx = pipeline(False, with_round=False)
                    record(ctx, "setup")
                wall = _run_stages(result, ctx, "round", workload.timed, None)
                result.round_walls[False].append(wall)
                record(ctx, "round")
    except Exception:  # a failed operation ends the run and is reported
        result.failed += 1
        result.errors.append(traceback.format_exc())
    return result


def end_to_end(result: Result, peak_rss_mb: float) -> dict[str, float]:
    w = result.workload
    out = {
        "setup_s": statistics.median(result.setup_walls),
        "wall_s": statistics.median(result.round_walls[False]),
        "peak_rss_mb": peak_rss_mb,
    }
    for name, (stage, figure, _) in STAGE_METRICS.items():
        phase = "round" if stage in w.timed else "setup"
        runs = [r for r in result.stage_runs if r.stage == stage and r.phase == phase]
        if runs:
            values = [r.work / r.adjusted if figure == "rate" else r.adjusted for r in runs]
            out[name] = statistics.median(values)
    return out


def per_layer(result: Result) -> dict[str, float]:
    tracer = result.tracer
    out = layer_values(LAYER_METRICS, tracer.spans, tracer.counts)
    traced = statistics.median(result.round_walls[True])
    untraced = statistics.median(result.round_walls[False])
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return out
