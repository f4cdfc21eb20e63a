"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces selected functions and methods of the
``nicholsalg`` modules with wrappers, at every module global and class
attribute bound to the original object (so ``cli.enumerate_roots`` and
``weyl.enumerate_roots`` are both wrapped, and ``CycNumber.__rmul__`` shares
the ``__mul__`` wrapper). Span wrappers record start, end, parent and self
time in memory; counting wrappers only bump counters. ``uninstall`` restores
every original binding.

Each span belongs to the layer named by the prefix of its span name. Every
traced task is a root span of layer ``task``, so the self times of all spans
sum to the traced wall time, and the task spans' own self time is the time
no layer span covers (``trace.other_s``).
"""

import functools
import math
import random
import statistics
import time
from array import array

# (name, unit, better) of every metric a traced run emits
PER_LAYER = [
    ("cyclo.mul_calls", "count", "lower"),
    ("cyclo.add_calls", "count", "lower"),
    ("cyclo.lift_calls", "count", "lower"),
    ("cyclo.inverse_calls", "count", "lower"),
    ("cyclo.mixed_frac", "frac", "lower"),
    ("cyclo.mul_ns", "ns", "lower"),
    ("cyclo.add_ns", "ns", "lower"),
    ("linalg.echelon_add_calls", "count", "lower"),
    ("linalg.echelon_s", "s", "lower"),
    ("linalg.useful_row_frac", "frac", "higher"),
    ("linalg.rank_s", "s", "lower"),
    ("braided.braid_word_calls", "count", "lower"),
    ("tensoralg.symmetrizer_s", "s", "lower"),
    ("tensoralg.words_symmetrized", "count", "lower"),
    ("tensoralg.image_terms", "count", "lower"),
    ("rewriting.complete_s", "s", "lower"),
    ("rewriting.count_s", "s", "lower"),
    ("rewriting.overlaps", "count", "lower"),
    ("rewriting.new_rules", "count", "lower"),
    ("rewriting.useful_overlap_frac", "frac", "higher"),
    ("rewriting.rules_final", "count", "lower"),
    ("rewriting.nf_calls", "count", "lower"),
    ("relations.catalog_s", "s", "lower"),
    ("relations.instances", "count", "lower"),
    ("bialgebra.from_nichols_s", "s", "lower"),
    ("bialgebra.coact_s", "s", "lower"),
    ("bialgebra.coprod_tensor_calls", "count", "lower"),
    ("bialgebra.mprod_calls", "count", "lower"),
    ("cohomology.dc_s", "s", "lower"),
    ("cohomology.dh_s", "s", "lower"),
    ("cohomology.face_entries", "count", "lower"),
    ("cohomology.h2_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# (module, attribute path, span name); a span's layer is its name's prefix
SPANS = [
    ("linalg", "Echelon.add", "linalg.echelon"),
    ("linalg", "sparse_rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.rank"),
    ("tensoralg", "nichols_dims", "tensoralg.symmetrizer"),
    ("tensoralg", "symmetrizer_rank", "tensoralg.symmetrizer"),
    ("tensoralg", "ideal_component", "tensoralg.symmetrizer"),
    ("tensoralg", "matsumoto_symmetrizer", "tensoralg.symmetrizer"),
    ("rewriting", "rewrite_dims", "rewriting.rewrite_dims"),
    ("rewriting", "RewriteSystem.complete", "rewriting.complete"),
    ("rewriting", "RewriteSystem.normal_word_counts", "rewriting.count"),
    ("weyl", "enumerate_roots", "relations.catalog"),
    ("relations", "generate_relations", "relations.catalog"),
    ("bialgebra", "from_nichols", "bialgebra.from_nichols"),
    ("bialgebra", "attach_diagonal_category", "bialgebra.category"),
    ("bialgebra", "attach_group_category", "bialgebra.category"),
    ("bialgebra", "GradedBialgebraData.coact_left", "bialgebra.coact"),
    ("bialgebra", "GradedBialgebraData.coact_right", "bialgebra.coact"),
    ("bialgebra", "GradedBialgebraData.act_left", "bialgebra.act"),
    ("bialgebra", "GradedBialgebraData.act_right", "bialgebra.act"),
    ("cohomology", "truncated_H2", "cohomology.h2"),
    ("cohomology", "dc_apply", "cohomology.dc"),
    ("cohomology", "dh_apply", "cohomology.dh"),
    ("cohomology", "epsilon_H2", "cohomology.epsilon"),
    ("cohomology", "kernel_M", "cohomology.epsilon"),
    ("cohomology", "hom_M_dim", "cohomology.epsilon"),
]

TASK = "task"
SAMPLE_SIZE = 2048  # CycNumber operand pairs kept per operation for the replay
REPLAY_ROUNDS = 25


class Reservoir:
    """Seeded uniform sample of a stream (Li's Algorithm L).

    Callers bump ``seen`` and call ``take`` only when ``seen == next``, so the
    per-item cost after the sample fills is one comparison.
    """

    def __init__(self, rng, size):
        self.rng = rng
        self.size = size
        self.items = []
        self.seen = 0
        self.next = 1
        self._w = 1.0

    def _u(self):
        return max(self.rng.random(), 1e-300)

    def _skip(self):
        self._w *= math.exp(math.log(self._u()) / self.size)
        self.next = self.seen + math.floor(math.log(self._u()) / math.log1p(-self._w)) + 1

    def take(self, item):
        if len(self.items) < self.size:
            self.items.append(item)
            self.next += 1
            if len(self.items) == self.size:
                self._skip()
        else:
            self.items[self.rng.randrange(self.size)] = item
            self._skip()


class Tracer:
    def __init__(self, seed):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._stack = []  # open spans: [index, child time, start]
        self.counts = dict.fromkeys(
            [
                "cyclo.mul_calls", "cyclo.add_calls", "cyclo.lift_calls",
                "cyclo.inverse_calls", "cyclo.mixed",
                "linalg.echelon_add_calls", "linalg.useful_rows",
                "braided.braid_word_calls",
                "tensoralg.words_symmetrized", "tensoralg.image_terms",
                "rewriting.overlaps", "rewriting.useful_overlaps",
                "rewriting.new_rules", "rewriting.rules_final", "rewriting.nf_calls",
                "relations.instances",
                "bialgebra.coprod_tensor_calls", "bialgebra.mprod_calls",
                "cohomology.face_entries",
            ],
            0,
        )
        rng = random.Random(seed)
        self.samples = {"mul": Reservoir(rng, SAMPLE_SIZE), "add": Reservoir(rng, SAMPLE_SIZE)}
        self._add_depth = 0
        self._patches = []
        self.missing = []  # traced names the program no longer has; their metrics read 0

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        frame = [idx, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        idx, child, start = frame
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.span_self[idx] = dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _innermost(self):
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def run_task(self, fn, *args):
        """Run fn(*args) as a root span of layer ``task``."""
        frame = self._open(self._name_id(TASK))
        try:
            return fn(*args)
        finally:
            self._close(frame)

    def _span(self, fn, name, after=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = open_(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                close(frame)

        return wrapped

    def _count(self, fn, after):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapped

    # -- hooks -------------------------------------------------------------------

    def _bump(self, key, k=1):
        self.counts[key] += k

    def _after_echelon(self, args, row):
        self.counts["linalg.echelon_add_calls"] += 1
        if row:
            self.counts["linalg.useful_rows"] += 1

    def _after_image(self, args, image):
        self.counts["tensoralg.words_symmetrized"] += 1
        self.counts["tensoralg.image_terms"] += len(image)

    def _reduce_hook(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            # an overlap is a reduction made by complete itself, not by add_relation
            if self._add_depth == 0 and self._innermost() == "rewriting.complete":
                counts["rewriting.overlaps"] += 1
                if result:
                    counts["rewriting.useful_overlaps"] += 1
            return result

        return wrapped

    def _add_relation_hook(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            top = self._add_depth == 0
            self._add_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._add_depth -= 1
            if top and result is not None and self._innermost() == "rewriting.complete":
                self.counts["rewriting.new_rules"] += 1
            return result

        return wrapped

    def _binary_hook(self, fn, key, reservoir, cls):
        counts = self.counts

        def wrapped(a, b):
            counts[key] += 1
            if b.__class__ is cls and b.n != a.n:
                counts["cyclo.mixed"] += 1
            reservoir.seen += 1
            if reservoir.seen == reservoir.next:
                reservoir.take((a, b))
            return fn(a, b)

        return wrapped

    # -- installation ------------------------------------------------------------

    def _wrappers(self, modules):
        """(original object, wrapper) for every traced name."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        count = self._count
        after = {
            "linalg.echelon": self._after_echelon,
            "rewriting.complete": lambda a, r: self._bump("rewriting.rules_final", len(a[0].rules)),
            "relations.catalog": lambda a, r: self._bump("relations.instances", len(r))
            if isinstance(r, list) else None,
            "cohomology.dc": lambda a, r: self._bump("cohomology.face_entries", len(r)),
            "cohomology.dh": lambda a, r: self._bump("cohomology.face_entries", len(r)),
        }

        def lookup(mod, path):
            obj = mods.get(mod)
            for part in path.split("."):
                obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
            if obj is None:
                self.missing.append(f"{mod}.{path}")
            return obj

        out = []
        for mod, path, name in SPANS:
            fn = lookup(mod, path)
            if fn is not None:
                out.append((fn, self._span(fn, name, after.get(name))))
        counters = [
            ("braided", "apply_braiding_word", lambda a, r: self._bump("braided.braid_word_calls")),
            ("braided", "braid_word_blocks", lambda a, r: self._bump("braided.braid_word_calls")),
            ("tensoralg", "symmetrizer_image_word", self._after_image),
            ("rewriting", "RewriteSystem.normal_form_word", lambda a, r: self._bump("rewriting.nf_calls")),
            ("bialgebra", "GradedBialgebraData.coprod_tensor",
             lambda a, r: self._bump("bialgebra.coprod_tensor_calls")),
            ("bialgebra", "GradedBialgebraData.mprod", lambda a, r: self._bump("bialgebra.mprod_calls")),
            ("cyclo", "CycNumber.lift", lambda a, r: self._bump("cyclo.lift_calls")),
            ("cyclo", "CycNumber.inverse", lambda a, r: self._bump("cyclo.inverse_calls")),
        ]
        for mod, path, hook in counters:
            fn = lookup(mod, path)
            if fn is not None:
                out.append((fn, count(fn, hook)))
        for path, make in (
            ("RewriteSystem.reduce", self._reduce_hook),
            ("RewriteSystem.add_relation", self._add_relation_hook),
        ):
            fn = lookup("rewriting", path)
            if fn is not None:
                out.append((fn, make(fn)))
        cls = lookup("cyclo", "CycNumber")
        for attr, key, op in (("__mul__", "cyclo.mul_calls", "mul"), ("__add__", "cyclo.add_calls", "add")):
            fn = lookup("cyclo", f"CycNumber.{attr}") if cls is not None else None
            if fn is not None:
                out.append((fn, self._binary_hook(fn, key, self.samples[op], cls)))
        return out

    def install(self, modules):
        """Bind the wrappers wherever the modules bind the originals."""
        self.missing = []
        wrappers = self._wrappers(modules)
        by_id = {id(fn): (fn, w) for fn, w in wrappers}
        for mod in modules:
            owners = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    hit = by_id.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patches.append((owner, attr, val))
                        setattr(owner, attr, hit[1])
        bound = {id(v) for _, _, v in self._patches}
        self.missing += [f"{fn.__module__}.{fn.__qualname__} (unbound)" for fn, _ in wrappers if id(fn) not in bound]

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def self_by_name(self):
        out = dict.fromkeys(self.names, 0.0)
        for nid, s in zip(self.span_name, self.span_self):
            out[self.names[nid]] += s
        return out

    def total_by_name(self):
        out = dict.fromkeys(self.names, 0.0)
        for nid, a, b in zip(self.span_name, self.span_start, self.span_end):
            out[self.names[nid]] += b - a
        return out

    def wall(self):
        """Traced wall time: the summed durations of the task root spans."""
        task = self._ids.get(TASK)
        return sum(b - a for nid, a, b in zip(self.span_name, self.span_start, self.span_end) if nid == task)

    def self_by_layer(self):
        out = {}
        for name, s in self.self_by_name().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out

    def metrics(self, overhead_frac):
        c = self.counts
        own = self.self_by_name()
        total = self.total_by_name()
        s = lambda name: own.get(name, 0.0)
        frac = lambda num, den: num / den if den else 0.0
        values = {
            "cyclo.mul_calls": c["cyclo.mul_calls"],
            "cyclo.add_calls": c["cyclo.add_calls"],
            "cyclo.lift_calls": c["cyclo.lift_calls"],
            "cyclo.inverse_calls": c["cyclo.inverse_calls"],
            "cyclo.mixed_frac": frac(c["cyclo.mixed"], c["cyclo.mul_calls"] + c["cyclo.add_calls"]),
            "cyclo.mul_ns": replay_ns(self.samples["mul"].items, _mul),
            "cyclo.add_ns": replay_ns(self.samples["add"].items, _add),
            "linalg.echelon_add_calls": c["linalg.echelon_add_calls"],
            "linalg.echelon_s": s("linalg.echelon"),
            "linalg.useful_row_frac": frac(c["linalg.useful_rows"], c["linalg.echelon_add_calls"]),
            "linalg.rank_s": total.get("linalg.rank", 0.0),
            "braided.braid_word_calls": c["braided.braid_word_calls"],
            "tensoralg.symmetrizer_s": s("tensoralg.symmetrizer"),
            "tensoralg.words_symmetrized": c["tensoralg.words_symmetrized"],
            "tensoralg.image_terms": c["tensoralg.image_terms"],
            "rewriting.complete_s": s("rewriting.complete"),
            "rewriting.count_s": s("rewriting.count"),
            "rewriting.overlaps": c["rewriting.overlaps"],
            "rewriting.new_rules": c["rewriting.new_rules"],
            "rewriting.useful_overlap_frac": frac(c["rewriting.useful_overlaps"], c["rewriting.overlaps"]),
            "rewriting.rules_final": c["rewriting.rules_final"],
            "rewriting.nf_calls": c["rewriting.nf_calls"],
            "relations.catalog_s": s("relations.catalog"),
            "relations.instances": c["relations.instances"],
            "bialgebra.from_nichols_s": s("bialgebra.from_nichols"),
            "bialgebra.coact_s": s("bialgebra.coact"),
            "bialgebra.coprod_tensor_calls": c["bialgebra.coprod_tensor_calls"],
            "bialgebra.mprod_calls": c["bialgebra.mprod_calls"],
            "cohomology.dc_s": s("cohomology.dc"),
            "cohomology.dh_s": s("cohomology.dh"),
            "cohomology.face_entries": c["cohomology.face_entries"],
            "cohomology.h2_s": s("cohomology.h2"),
            "trace.other_s": s(TASK),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def dump(self):
        """Everything recorded, as a JSON-ready dict."""
        return {
            "missing": self.missing,
            "names": self.names,
            "counts": self.counts,
            "self_s_by_layer": self.self_by_layer(),
            "self_s_by_span": self.self_by_name(),
            "total_s_by_span": self.total_by_name(),
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "self": self.span_self.tolist(),
            },
        }


def _mul(pairs):
    for a, b in pairs:
        a * b


def _add(pairs):
    for a, b in pairs:
        a + b


def replay_ns(pairs, op):
    """Median time per operation, in ns, of replaying the sampled pairs."""
    if not pairs:
        return 0.0
    times = []
    for _ in range(REPLAY_ROUNDS):
        t0 = time.perf_counter()
        op(pairs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e9
