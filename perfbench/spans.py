"""In-memory spans around the public calls into each tilefusion layer.

A Tracer records spans (name, start, end, parent) and named counters.
``Instrumentation.install`` swaps the layer functions the pipeline and
trainer call for wrappers that open a span around the original, plus
hooks that count work where it happens; ``restore`` puts the originals
back. Only the benchmark's traced repetitions run with the wrappers
installed.

A layer's self time is its span's duration minus the time its child
spans cover. Root spans are opened by the benchmark itself around each
unit of work (one ``run_stage`` call, one ``Pipeline.answer`` call); a
root's self time is the time inside the unit that no layer span covers.
"""

import gc
import hashlib
import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.names[idx]!r} closed while "
                f"{self.names[top]!r} was open")

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args) runs in a bookkeeping span."""
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                book = self.begin("trace.bookkeeping")
                try:
                    after(out, args)
                finally:
                    self.end(book)
            return out
        return wrapper

    def self_times(self) -> dict:
        """Total self time per span name, over every closed span."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if self.ends[i] is None:
                raise RuntimeError(f"span {self.names[i]!r} never closed")
            if parent != NO_PARENT:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child_time[i]
        return dict(totals)

    def durations(self, name: str) -> list:
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]


def graph_size(loss) -> int:
    """Nodes reachable from loss through recorded graph edges."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for child in getattr(node, "_prev", ()):
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class Instrumentation:
    """The set of wrappers for one tracer; install, then restore."""

    def __init__(self, tracer: Tracer, tf):
        self.tracer = tracer
        self.tf = tf  # namespace holding the tilefusion modules
        self.params = []  # parameters whose frozen-grad share is counted
        self._seen = set()
        self._graph_counted = False
        self._saved = []
        self._gc_start = None

    # ---- bookkeeping hooks -------------------------------------------

    def new_run(self, params) -> None:
        """A fresh model: encodes seen before no longer count as repeats."""
        self.params = list(params)
        self._seen.clear()
        self._graph_counted = False

    def new_stage(self) -> None:
        self._graph_counted = False

    def _after_segment(self, tiles, args):
        c = self.tracer.counts
        c["tiling.images"] += 1
        c["tiling.patches"] += len(tiles.patches)

    def _after_encode(self, grid, args):
        encoder, tiles = args[0], args[1]
        pixels = hashlib.sha1()
        for patch in tiles.patches:
            pixels.update(patch.pixels.tobytes())
        weights = hashlib.sha1()
        for p in encoder.parameters():
            weights.update(p.data.tobytes())
        key = (encoder.prefix, pixels.digest(), weights.digest())
        c = self.tracer.counts
        c["encoders.encode_calls"] += 1
        if key in self._seen:
            c["encoders.repeats"] += 1
        self._seen.add(key)

    def _after_splice(self, seq, args):
        c = self.tracer.counts
        visual = args[2]
        c["assembly.sequences"] += 1
        c["assembly.positions"] += seq.length
        c["fusion.images"] += len(visual)
        c["fusion.visual_tokens"] += sum(v.n_tokens for v in visual)

    def _after_lm_forward(self, out, args):
        c = self.tracer.counts
        c["lm.forward_calls"] += 1
        if self.tracer.inside("lm.decode"):
            c["lm.decode_positions"] += args[1].length

    def _after_decode(self, new_ids, args):
        self.tracer.counts["lm.decoded_tokens"] += len(new_ids)

    def _after_backward(self, out, args):
        c = self.tracer.counts
        if not self._graph_counted:
            c["tensor.graph_nodes"] += graph_size(args[0])
            c["tensor.graphs"] += 1
            self._graph_counted = True
        for p in self.params:
            if p.grad is None:
                continue
            c["tensor.grad_elements"] += p.grad.size
            if p.frozen:
                c["tensor.frozen_grad_elements"] += p.grad.size

    def _after_save(self, out, args):
        c = self.tracer.counts
        c["training.checkpoints"] += 1
        c["training.checkpoint_bytes"] += len(args[0].blob)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.tracer.counts["runtime.gc_s"] += (
                time.perf_counter() - self._gc_start)
            self._gc_start = None
            if info.get("generation") == 2:
                self.tracer.counts["runtime.gc_gen2"] += 1

    # ---- install / restore -------------------------------------------

    def _targets(self):
        tf = self.tf
        model, training = tf.model, tf.training
        yield tf.datagen, "generate", "datagen.generate", None
        yield model, "segment", "tiling.segment", self._after_segment
        yield (tf.encoders.Encoder, "encode", "encoders.encode",
               self._after_encode)
        yield model, "pixel_unshuffle", "encoders.unshuffle", None
        for fn in ("project", "fuse_post_interleave", "fuse_post_channel",
                   "fuse_pre"):
            yield model, fn, "fusion.project_fuse", None
        yield model, "splice", "assembly.splice", self._after_splice
        yield (tf.lm.LanguageModel, "forward", "lm.forward",
               self._after_lm_forward)
        yield (tf.lm.LanguageModel, "greedy_decode", "lm.decode",
               self._after_decode)
        yield tf.tensor, "backward", "tensor.backward", self._after_backward
        yield training.AdamW, "step", "training.optimizer", None
        yield training, "write_metrics", "training.metrics_write", None
        yield training, "snapshot", "training.checkpoint", None
        yield (training.Checkpoint, "save", "training.checkpoint",
               self._after_save)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for owner, attr, span, after in self._targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(span, original, after))
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
