"""One benchmark workload, run in this process: set up, warm up, measure.

run.py starts this file in a fresh process per workload; it prints one
JSON document as its last line (the contract result, a report of every
end-to-end figure with its sample count, and a steadiness record).

    python3 perfbench/workloads.py --workload train-hybrid --seed 3 \
        --seconds 25 --trace 0
    python3 perfbench/workloads.py --record    # rewrite reference.json

The package is driven only through its public calls: datagen.generate,
experiment.build_pipeline_config / build_stage_plans, model.Pipeline,
training.run_stage (fresh temporary out_dir per run, as `tilefusion
train` does) and Pipeline.answer.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench"

# --seed n selects task seed (shipped task seed + n mod REFERENCE_SEEDS);
# reference.json holds the expected outputs of each of those task seeds.
REFERENCE_SEEDS = 16
LOSS_RTOL = 1e-6
SETUP_REPEATS = 11
MIN_UNITS = 200  # a p95 in the report lines needs ten samples beyond it
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Train workloads shorten both stages in the shipped step ratio and scale
# n_train to keep the shipped visits per image.
WORKLOADS = {
    "train-hybrid": {"config": "complementary-hybrid", "steps": (4, 28)},
    "train-tiles": {"config": "tile-detail-tiled", "steps": (2, 50)},
    "eval-decode": {"config": "complementary-hybrid", "steps": None},
}

LAYER_SPANS = ("tiling.segment", "encoders.encode", "encoders.unshuffle",
               "fusion.project_fuse", "assembly.splice", "lm.forward",
               "lm.decode", "tensor.backward", "training.optimizer",
               "training.metrics_write", "training.checkpoint",
               "trace.bookkeeping")


def import_package():
    """The tilefusion modules from this checkout's src/, nothing else."""
    src = ROOT / "src"
    if not (src / "tilefusion" / "__init__.py").is_file():
        raise SystemExit(f"no tilefusion package under {src}")
    sys.path.insert(0, str(src))
    import tilefusion
    from tilefusion import (datagen, encoders, experiment, lm, model,
                            tensor, training)
    if src not in Path(tilefusion.__file__).resolve().parents:
        raise SystemExit(f"tilefusion imported from {tilefusion.__file__}, "
                         f"not from {src}")
    return types.SimpleNamespace(
        datagen=datagen, encoders=encoders, experiment=experiment, lm=lm,
        model=model, tensor=tensor, training=training)


class Workload:
    """A shipped config with its benchmark sizes, bound to one seed."""

    def __init__(self, tf, name: str, seed: int):
        self.tf = tf
        spec = WORKLOADS[name]
        self.cfg = tf.experiment.load_config(
            ROOT / "configs" / f"{spec['config']}.json")
        self.ref_key = str(seed % REFERENCE_SEEDS)
        self.task = dict(self.cfg["task"])
        self.task["seed"] += seed % REFERENCE_SEEDS
        self.model_seed = self.cfg.get("seed", 0)
        self.training = json.loads(json.dumps(self.cfg["training"]))
        self.batch_size = self.training.get("batch_size", 8)
        self.is_train = spec["steps"] is not None
        if self.is_train:
            full = sum(self.training[s]["steps"] for s in ("stage1", "stage2"))
            for stage, steps in zip(("stage1", "stage2"), spec["steps"]):
                self.training[stage]["steps"] = steps
            self.task["n_train"] = measure.scaled_n_train(
                self.task["n_train"], full, sum(spec["steps"]),
                self.batch_size)
        self.data = None
        self.pipe_cfg = None
        self.model = None

    def set_up(self) -> float:
        """generate + Pipeline build; returns seconds taken."""
        t0 = time.perf_counter()
        spec = self.tf.experiment.build_task_spec(self.task)
        self.data = self.tf.datagen.generate(spec)
        self.pipe_cfg = self.tf.experiment.build_pipeline_config(
            self.cfg["model"])
        self.model = self.tf.model.Pipeline(self.pipe_cfg,
                                            seed=self.model_seed)
        return time.perf_counter() - t0

    def run_once(self, tracer=None, inst=None) -> dict:
        if self.is_train:
            return self._train_once(tracer, inst)
        return self._eval_once(tracer, inst)

    def _train_once(self, tracer, inst) -> dict:
        tf = self.tf
        model = tf.model.Pipeline(self.pipe_cfg, seed=self.model_seed)
        names = [p.name for p in model.parameters()]
        plans, _ = tf.experiment.build_stage_plans(self.training, names)
        if inst is not None:
            inst.new_run(model.parameters())
        WORK_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        losses, step_ms, wall = [], {}, 0.0
        try:
            for plan in plans:
                if inst is not None:
                    inst.new_stage()
                root = None if tracer is None else tracer.begin(
                    "training.run_stage")
                t0 = time.perf_counter()
                try:
                    _, records = tf.training.run_stage(
                        plan, model, self.data.train, seed=self.model_seed,
                        batch_size=self.batch_size, out_dir=out_dir,
                        clock=time.perf_counter)
                finally:
                    wall += time.perf_counter() - t0
                    if root is not None:
                        tracer.end(root)
                losses.extend(r.loss for r in records)
                step_ms[plan.name] = [r.wall_ms for r in records]
        finally:
            shutil.rmtree(out_dir)
        units = len(losses)
        return {"outputs": losses, "unit_ms": sum(step_ms.values(), []),
                "stage_ms": step_ms, "wall": wall, "units": units,
                "samples": units * self.batch_size}

    def _eval_once(self, tracer, inst) -> dict:
        model = self.model
        max_new = self.training.get("eval_max_new", 4)
        if inst is not None:
            inst.new_run(model.parameters())
        answers, unit_ms = [], []
        for s in self.data.eval:
            root = None if tracer is None else tracer.begin("eval.answer")
            t0 = time.perf_counter()
            try:
                answers.append(model.answer(s.images, s.question,
                                            max_new=max_new))
            finally:
                unit_ms.append((time.perf_counter() - t0) * 1000.0)
                if root is not None:
                    tracer.end(root)
        return {"outputs": answers, "unit_ms": unit_ms, "stage_ms": {},
                "wall": sum(unit_ms) / 1000.0, "units": len(answers),
                "samples": len(answers)}

    def traced_once(self, tracer=None) -> tuple:
        """One repetition with spans and counters; returns (rep, tracer)."""
        if tracer is None:
            tracer = spans.Tracer()
        inst = spans.Instrumentation(tracer, self.tf)
        inst.install()
        try:
            rep = self.run_once(tracer, inst)
        finally:
            inst.restore()
        return rep, tracer


# ---------------------------------------------------------------------------
# output checks


def load_reference(name: str, key: str) -> dict:
    with open(REFERENCE_PATH) as f:
        ref = json.load(f)
    return ref["workloads"][name][key]


def check_outputs(wl: Workload, reps, ref: dict, warm_counts) -> dict:
    """Compare every repetition with the reference and with the first.

    Train: each step's loss within LOSS_RTOL of the recorded stream,
    and bitwise equal to the first repetition's. Eval: every answer
    equal to the recorded one and to the first repetition's, and the
    decoded token count (counted during warm-up) equal to the recorded.
    """
    first = reps[0]["outputs"]
    failed = matched = checked = 0
    notes = []
    for i, rep in enumerate(reps):
        out = rep["outputs"]
        if wl.is_train:
            want = ref["losses"]
            ok_ref = [abs(a - b) <= LOSS_RTOL * abs(b)
                      for a, b in zip(out, want)]
        else:
            want = ref["answers"]
            ok_ref = [a == b for a, b in zip(out, want)]
        if len(out) != len(want):
            notes.append(f"rep {i}: {len(out)} outputs, reference has "
                         f"{len(want)}")
            ok_ref = [False] * len(out)
        ok_rep = [a == b for a, b in zip(out, first)]
        ok_rep += [False] * (len(out) - len(ok_rep))
        for good_ref, good_rep in zip(ok_ref, ok_rep):
            checked += 1
            matched += good_ref
            failed += not (good_ref and good_rep)
        if not all(ok_ref):
            notes.append(f"rep {i}: {len(ok_ref) - sum(ok_ref)} outputs "
                         "differ from the reference")
        if not all(ok_rep):
            notes.append(f"rep {i}: {len(ok_rep) - sum(ok_rep)} outputs "
                         "differ from the first repetition")
    if not wl.is_train:
        tokens = int(warm_counts["lm.decoded_tokens"])
        if tokens != ref["tokens"]:
            failed += 1
            notes.append(f"decoded {tokens} tokens, reference "
                         f"{ref['tokens']}")
    return {"failed": failed, "matched": matched, "checked": checked,
            "notes": notes}


# ---------------------------------------------------------------------------
# metrics


def timing_summary(values_ms) -> dict:
    n = len(values_ms)
    pm = measure.tail_permille(n)
    out = {"n": n, "p50": measure.percentile(values_ms, 50)}
    if pm is not None and pm > 500:
        out["tail"] = measure.percentile_label(pm)
        out["tail_ms"] = measure.percentile(values_ms, pm / 10.0)
    return out


def end_to_end(wl, setup_s, timed, check) -> tuple:
    """Contract metrics plus the per-workload report lines."""
    unit_ms = sum((r["unit_ms"] for r in timed), [])
    samples = sum(r["samples"] for r in timed)
    wall = sum(r["wall"] for r in timed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    match = check["matched"] / check["checked"]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "samples_per_s": (samples / wall, "1/s"),
        "step_ms_p50": (measure.percentile(unit_ms, 50), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "output_match": (match, "share"),
    }
    report = {"setup_s": {"value": statistics.median(setup_s), "unit": "s",
                          "n": len(setup_s)},
              "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
              "failed_share": {"value": check["failed"] / check["checked"],
                               "unit": "share", "n": check["checked"]}}
    if wl.is_train:
        report["train_samples_per_s"] = {"value": samples / wall,
                                         "unit": "1/s", "n": samples}
        for stage in ("stage1", "stage2"):
            ms = sum((r["stage_ms"].get(stage, []) for r in timed), [])
            if ms:
                t = timing_summary(ms)
                report[f"{stage}_step_ms_p50"] = {
                    "value": t["p50"], "unit": "ms", "n": t["n"]}
                if "tail" in t:
                    report[f"{stage}_step_ms_{t['tail']}"] = {
                        "value": t["tail_ms"], "unit": "ms", "n": t["n"]}
        final = timed[-1]["outputs"][-1]
        report["final_loss"] = {"value": final, "unit": "nat",
                                "reference": check["final_reference"]}
    else:
        t = timing_summary(unit_ms)
        report["eval_samples_per_s"] = {"value": samples / wall,
                                        "unit": "1/s", "n": samples}
        report["eval_sample_ms_p50"] = {"value": t["p50"], "unit": "ms",
                                        "n": t["n"]}
        if "tail" in t:
            report[f"eval_sample_ms_{t['tail']}"] = {
                "value": t["tail_ms"], "unit": "ms", "n": t["n"]}
        report["answer_match"] = {"value": match, "unit": "share",
                                  "n": check["checked"]}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            report)


def per_layer(wl, tracer, traced, untraced, setup_tracer) -> dict:
    """Per-layer figures from the traced repetitions' spans and counts."""
    units = sum(r["units"] for r in traced)
    c = tracer.counts
    selfs = tracer.self_times()
    root = "training.run_stage" if wl.is_train else "eval.answer"
    step_ms = sum(tracer.durations(root)) * 1000.0 / units
    other_ms = selfs.get(root, 0.0) * 1000.0 / units

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    def per_unit_ms(rep):
        return rep["wall"] * 1000.0 / rep["units"]

    m = {}
    for name in LAYER_SPANS:
        m[f"{name}_ms"] = (selfs.get(name, 0.0) * 1000.0 / units, "ms/step")
    generate = setup_tracer.durations("datagen.generate")
    m.update({
        "training.step_other_ms": (other_ms, "ms/step"),
        "trace.step_ms": (step_ms, "ms/step"),
        "trace.covered_share": (1.0 - other_ms / step_ms, "share"),
        "trace.overhead_share": (
            statistics.median(per_unit_ms(r) for r in traced)
            / statistics.median(per_unit_ms(r) for r in untraced) - 1.0,
            "share"),
        "datagen.generate_ms": (statistics.median(generate) * 1000.0, "ms"),
        "tiling.patches_per_image": (
            ratio("tiling.patches", "tiling.images"), "count"),
        "encoders.encode_calls": (c["encoders.encode_calls"] / units,
                                  "count/step"),
        "encoders.repeat_share": (
            ratio("encoders.repeats", "encoders.encode_calls"), "share"),
        "fusion.visual_tokens_per_image": (
            ratio("fusion.visual_tokens", "fusion.images"), "count"),
        "assembly.seq_len_mean": (
            ratio("assembly.positions", "assembly.sequences"), "count"),
        "lm.forward_calls": (c["lm.forward_calls"] / units, "count/step"),
        "lm.decode_positions_per_token": (
            ratio("lm.decode_positions", "lm.decoded_tokens"), "count"),
        "tensor.graph_nodes_per_sample": (
            ratio("tensor.graph_nodes", "tensor.graphs") / wl.batch_size
            if wl.is_train else 0.0, "count"),
        "tensor.frozen_grad_share": (
            ratio("tensor.frozen_grad_elements", "tensor.grad_elements"),
            "share"),
        "training.checkpoint_bytes": (
            ratio("training.checkpoint_bytes", "training.checkpoints"),
            "bytes"),
        "runtime.gc_pause_ms_per_step": (c["runtime.gc_s"] * 1000.0 / units,
                                         "ms/step"),
        "runtime.gc_gen2_collections": (c["runtime.gc_gen2"] * 100.0 / units,
                                        "count/100step"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def steadiness(cpu_s: float, wall_s: float) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "measure_cpu_s": cpu_s, "measure_wall_s": wall_s,
            "cpu_wall_ratio": cpu_s / wall_s if wall_s else 0.0}


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# ---------------------------------------------------------------------------
# running one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tf = import_package()
    wl = Workload(tf, name, seed)
    ref = load_reference(name, wl.ref_key)

    # Cores of one machine can run at different speeds for minutes at a
    # time, and a process tends to stay on one core. Rotating the
    # repetitions over every allowed core keeps one run's figures from
    # depending on where it landed. The traced run stays on one core so
    # its traced and untraced repetitions compare like with like.
    cpus = sorted(os.sched_getaffinity(0))

    def on_cpu(i):
        os.sched_setaffinity(0, {cpus[0 if trace else i % len(cpus)]})

    setup_tracer = spans.Tracer()
    setup_inst = spans.Instrumentation(setup_tracer, tf)
    if trace:
        setup_inst.install()
    setup_s = []
    try:
        for i in range(SETUP_REPEATS):
            on_cpu(i)
            setup_s.append(wl.set_up())
    finally:
        setup_inst.restore()

    # Warm-up: one untimed repetition, traced so the eval decode
    # reports its token count; its outputs are checked like the rest.
    on_cpu(0)
    gc.collect()
    warm, warm_tracer = wl.traced_once()

    timed, traced, untraced = [], [], []
    tracer = spans.Tracer()
    cpu0, t_start = cpu_seconds(), time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        units = sum(r["units"] for r in timed)
        if trace:
            done = traced and untraced and elapsed >= seconds
        else:
            done = timed and elapsed >= seconds and (
                units >= MIN_UNITS or elapsed >= 3 * seconds)
        if done:
            break
        on_cpu(len(timed))
        gc.collect()
        rep_cpu0 = cpu_seconds()
        use_trace = trace and len(timed) % 2 == 1
        if use_trace:
            rep, _ = wl.traced_once(tracer)
            traced.append(rep)
        else:
            rep = wl.run_once()
            untraced.append(rep)
        rep["traced"] = use_trace
        rep["cpu"] = os.sched_getaffinity(0).pop()
        rep["cpu_s"] = cpu_seconds() - rep_cpu0
        timed.append(rep)
    wall = time.perf_counter() - t_start
    cpu = cpu_seconds() - cpu0
    os.sched_setaffinity(0, cpus)

    check = check_outputs(wl, [warm] + timed, ref, warm_tracer.counts)
    if wl.is_train:
        check["final_reference"] = ref["losses"][-1]
    if trace:
        metrics = per_layer(wl, tracer, traced, untraced, setup_tracer)
        report = {k: dict(v) for k, v in metrics.items()}
        write_spans(name, seed, tracer)
    else:
        metrics, report = end_to_end(wl, setup_s, timed, check)
    bad = [k for k, v in metrics.items()
           if not (measure.valid_name(k) and measure.valid_unit(v["unit"]))]
    if bad:
        raise ValueError(f"metric names or units outside the contract: {bad}")
    attempted = sum(r["units"] for r in [warm] + timed)
    result = {"correct": check["failed"] == 0, "attempted": attempted,
              "failed": check["failed"], "metrics": metrics}
    steady = steadiness(cpu, wall)
    steady["repetitions"] = [{"cpu": r["cpu"], "wall_s": r["wall"],
                              "cpu_s": r["cpu_s"], "traced": r["traced"]}
                             for r in timed]
    return {"result": result, "report": report, "notes": check["notes"],
            "repetitions": len(timed), "steadiness": steady}


def write_spans(name: str, seed: int, tracer) -> None:
    """Spans of the traced repetitions, as columns, for later reading."""
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"names": tracer.names, "starts": tracer.starts,
                   "ends": tracer.ends, "parents": tracer.parents}, f)


def record_reference() -> None:
    """Re-record reference.json: one repetition per workload and seed."""
    tf = import_package()
    out = {"seeds": REFERENCE_SEEDS, "loss_rtol": LOSS_RTOL,
           "workloads": {}}
    for name in WORKLOADS:
        per_seed = {}
        for s in range(REFERENCE_SEEDS):
            wl = Workload(tf, name, s)
            wl.set_up()
            rep, tracer = wl.traced_once()
            if wl.is_train:
                per_seed[str(s)] = {"losses": rep["outputs"]}
            else:
                per_seed[str(s)] = {
                    "answers": rep["outputs"],
                    "tokens": int(tracer.counts["lm.decoded_tokens"])}
            print(f"recorded {name} seed {s}", file=sys.stderr)
        out["workloads"][name] = per_seed
    with open(REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record reference.json and exit")
    args = p.parse_args(argv)
    if args.record:
        record_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    doc = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(doc))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
