"""Span tracing and step timing for qent, applied from outside the library.

Nothing under ``src/`` knows about this module.  It instruments qent by
rebinding module attributes at run time: every module of the package that
holds a wrapped function under some name gets the wrapper in its place, so
calls between library modules are seen too.  ``stop()`` puts the originals
back, which is what lets the benchmark alternate traced and untraced rounds
in one process.

Spans live in memory as parallel arrays (name id, start, end, parent,
in-training-step flag) and are written out once, at exit.
"""

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

perf = time.perf_counter

# (module, attribute, span name) for the plain functions and methods traced.
# Classes are given as "Class.method".  Names become metric prefixes.
SPANNED = (
    ("qcore", "hermitian_eigenvalues", "qcore.eigvalsh"),
    ("qcore", "partial_trace", "qcore.partial_trace"),
    ("qcore", "kron_all", "qcore.kron_all"),
    ("qcore", "permute_qubits", "qcore.permute_qubits"),
    ("stategen", "random_circuit_state", "stategen.circuit"),
    ("stategen", "apply_gate", "stategen.apply_gate"),
    ("stategen", "haar_state", "stategen.haar"),
    ("stategen", "mix_states", "stategen.mix"),
    ("stategen", "traced_mixed_state", "stategen.traced"),
    ("stategen", "kron_separable_mixed", "stategen.kron_mixed"),
    ("stategen", "randomize_local", "stategen.randomize_local"),
    ("entanglement", "negativity_vector", "entanglement.negativity"),
    ("entanglement", "partial_transpose", "entanglement.partial_transpose"),
    ("dataset", "save_dataset", "dataset.save"),
    ("dataset", "load_dataset", "dataset.load"),
    ("dataset", "Dataset.arrays", "dataset.arrays"),
    ("autograd", "Tensor.backward", "autograd.backward"),
    ("model", "CnnClassifier.forward", "model.forward"),
    ("model", "encode_batch", "model.encode_batch"),
    ("model", "locc_batch", "model.locc_batch"),
    ("model", "permute_batch", "model.permute_batch"),
    ("model", "predict_encoded", "model.predict_encoded"),
    ("harness", "train_model", "harness.train_model"),
    ("harness", "evaluate_accuracy", "harness.evaluate_accuracy"),
    ("harness", "pptes_eval_mask", "harness.pptes_eval_mask"),
)

# Corpus builders: spanned, and they delimit the per-section accounting.
BUILDERS = {
    "build_training_set": "train",
    "build_validation_set": "valid",
    "build_test_sets": "test",
    "build_pptes_testset": "pptes",
}

# Differentiable ops: forward spanned on call, backward spanned by wrapping
# the ``_backward`` closure of the tensor the op returns.
AUTOGRAD_OPS = (
    "add", "sub", "scale", "reshape", "absolute", "square", "mean",
    "take_columns", "relu", "sigmoid", "dense", "conv2d", "bce_mean",
)


def _qent_modules():
    return [m for k, m in list(sys.modules.items()) if k == "qent" or k.startswith("qent.")]


def _rebind(owner, attr, new, undo):
    """Replace ``owner.attr`` (and every module binding of the same object)."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        undo.append((owner, attr, old))
        return old
    for mod in _qent_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))
    return old


def _resolve(qent, module, attr):
    owner = getattr(qent, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Step clock (always on) plus span recording (between start and stop)."""

    def __init__(self, batch_size, conv_layer_of_cin=None, flatten_size=None):
        self.batch_size = batch_size
        self.conv_layer_of_cin = dict(conv_layer_of_cin or {})
        self.flatten_size = flatten_size
        # step clock
        self.step_ms = []
        self.full_steps_traced = 0
        self._step_t0 = None
        self._step_full = False
        # spans
        self.active = False
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_parent = array("i")
        self.span_in_step = array("b")
        self._stack = []
        self._undo = []
        self._clock_undo = []
        # per-section corpus accounting: key (set, section) -> value
        self.section_s = defaultdict(float)
        self.section_states = defaultdict(int)
        self.section_neg_evals = defaultdict(int)
        self._marks = None
        self._current = None
        self._mark_t0 = 0.0

    # -- spans ------------------------------------------------------------

    def open(self, name):
        """Start a span; returns its index for ``close``."""
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_t0)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_in_step.append(self._step_full and self._step_t0 is not None)
        self.span_t1.append(0.0)
        self._stack.append(idx)
        self.span_t0.append(perf())
        return idx

    def close(self, idx):
        self.span_t1[idx] = perf()
        self._stack.pop()

    def call(self, fn, name, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.call(fn, name, args, kwargs)

        return wrapper

    # -- step clock -------------------------------------------------------

    def install_step_clock(self, qent):
        """Time each training step from loss call to the end of ``Adam.step``.

        Only full batches count, so the partial last batch of an epoch does
        not pull the step percentiles down.
        """

        def loss_wrapper(fn, name):
            def wrapper(model, x, *args, **kwargs):
                self._step_t0 = perf()
                self._step_full = x.shape[0] == self.batch_size
                return self.call(fn, name, (model, x) + args, kwargs)

            return wrapper

        for attr in ("cnn_loss", "siamese_loss"):
            orig = getattr(qent.model, attr)
            _rebind(qent.model, attr, loss_wrapper(orig, f"model.{attr}"), self._clock_undo)

        adam_step = qent.autograd.Adam.step

        def step_wrapper(opt):
            self.call(adam_step, "autograd.adam", (opt,), {})
            if self._step_t0 is not None and self._step_full:
                self.step_ms.append((perf() - self._step_t0) * 1e3)
                if self.active:
                    self.full_steps_traced += 1
            self._step_t0 = None
            self._step_full = False

        _rebind(qent.autograd.Adam, "step", step_wrapper, self._clock_undo)

    # -- install / remove -------------------------------------------------

    def start(self, qent):
        """Wrap the traced functions; spans are recorded until ``stop``."""
        for module, attr, name in SPANNED:
            owner, attr = _resolve(qent, module, attr)
            _rebind(owner, attr, self._spanned(getattr(owner, attr), name), self._undo)
        for attr, label in BUILDERS.items():
            orig = getattr(qent.dataset, attr)
            _rebind(qent.dataset, attr, self._builder(orig, attr, label), self._undo)
        self._wrap_section_marks(qent)
        for op in AUTOGRAD_OPS:
            orig = getattr(qent.autograd, op)
            _rebind(qent.autograd, op, self._autograd_op(orig, op, qent.autograd.Tensor), self._undo)
        self.active = True

    def stop(self):
        self.active = False
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def remove_step_clock(self):
        while self._clock_undo:
            owner, attr, old = self._clock_undo.pop()
            setattr(owner, attr, old)

    # -- library-specific wrappers ----------------------------------------

    def _autograd_op(self, fn, op, tensor_cls):
        if op == "conv2d":
            def base(args):
                return f"autograd.conv{self.conv_layer_of_cin.get(args[1].data.shape[1], 0)}"
        elif op == "dense":
            def base(args):
                flat = args[1].data.shape[0] == self.flatten_size
                return "autograd.dense_flat" if flat else "autograd.dense_stack"
        elif op in ("sigmoid", "bce_mean"):
            def base(args):
                return "autograd.sigmoid_bce"
        else:
            def base(args, _name=f"autograd.{op}"):
                return _name

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = base(args)
            idx = self.open(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
                if isinstance(out, tensor_cls) and out._backward is not None:
                    out._backward = self._spanned(out._backward, name + ".bwd")
                return out
            finally:
                self.close(idx)

        return wrapper

    def _builder(self, fn, attr, label):
        def wrapper(*args, **kwargs):
            self._marks = {}
            if label == "pptes":
                self._current = (label, args[0] if args else kwargs["family"])
            t0 = perf()
            try:
                result = self.call(fn, f"dataset.{attr}", args, kwargs)
            finally:
                end = perf()
                if label != "pptes" and self._current is not None:
                    self._marks_add(self._current, end - self._mark_t0, 0)
                marks, current = self._marks, self._current
                self._marks = self._current = None
            if label == "pptes":
                self.section_s[current] += end - t0
                self.section_states[current] += len(result)
                return result
            # Section tags index the manifest's sections; a builder returning
            # two corpora uses one set tag per corpus, in return order.
            sets = result if isinstance(result, tuple) else (result,)
            set_tags = list(dict.fromkeys(k[0] for k in marks))
            for (set_tag, sec_tag), (secs, states, negs) in marks.items():
                ds = sets[set_tags.index(set_tag)]
                key = (label, list(ds.manifest.sections)[sec_tag])
                self.section_s[key] += secs
                self.section_states[key] += states
                self.section_neg_evals[key] += negs
            return result

        return wrapper

    def _wrap_section_marks(self, qent):
        """Per-sample RNG streams ``(seed, set, section, index)`` mark sections."""
        rng_fn = qent.dataset.seeded_rng

        def marker(*key):
            if self._marks is not None and len(key) == 4:
                now = perf()
                if self._current is not None:
                    self._marks_add(self._current, now - self._mark_t0, 0)
                self._current = (key[1], key[2])
                self._mark_t0 = now
                self._marks_add(self._current, 0.0, 1)
            return rng_fn(*key)

        # Only the dataset module's binding: the training loop's shuffle
        # streams are not corpus samples.
        self._undo.append((qent.dataset, "seeded_rng", rng_fn))
        qent.dataset.seeded_rng = marker

        neg_fn = qent.entanglement.negativity_vector  # already spanned

        def counting(rho):
            if self._current is not None:
                if self._current[0] == "pptes":
                    self.section_neg_evals[self._current] += 1
                elif self._marks is not None:
                    self._marks_add(self._current, 0.0, 0, 1)
            return neg_fn(rho)

        _rebind(qent.entanglement, "negativity_vector", counting, self._undo)

    def _marks_add(self, key, secs, states, negs=0):
        s, n, e = self._marks.get(key, (0.0, 0, 0))
        self._marks[key] = (s + secs, n + states, e + negs)

    # -- summaries ----------------------------------------------------------

    def _arrays(self):
        n = len(self.span_t0)
        return (np.frombuffer(self.span_name, dtype=np.int32, count=n),
                np.frombuffer(self.span_t0, dtype=np.float64, count=n),
                np.frombuffer(self.span_t1, dtype=np.float64, count=n),
                np.frombuffer(self.span_parent, dtype=np.int32, count=n),
                np.frombuffer(self.span_in_step, dtype=np.int8, count=n).astype(bool))

    def summary(self):
        """Per span name: calls and seconds, total and self, overall and in steps."""
        name, t0, t1, parent, in_step = self._arrays()
        dur = t1 - t0
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_dur = dur - child
        k = len(self.names)

        def per_name(weights, sel=slice(None)):
            return np.bincount(name[sel], weights=weights[sel], minlength=k)

        cols = {"calls": np.bincount(name, minlength=k), "s": per_name(dur),
                "self_s": per_name(self_dur), "step_s": per_name(dur, in_step),
                "step_self_s": per_name(self_dur, in_step)}
        return {nm: {c: float(v[i]) for c, v in cols.items()} for i, nm in enumerate(self.names)}

    def under(self, child_name, ancestor_name):
        """Seconds in ``child_name`` spans that have an ``ancestor_name`` ancestor."""
        if child_name not in self._name_id or ancestor_name not in self._name_id:
            return 0.0
        name, t0, t1, parent, _ = self._arrays()
        rows = np.flatnonzero(name == self._name_id[child_name])
        aid = self._name_id[ancestor_name]
        hit = np.zeros(rows.size, dtype=bool)
        anc = parent[rows]
        while np.any(anc >= 0):
            live = anc >= 0
            hit[live] |= name[anc[live]] == aid
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        return float(np.sum(t1[rows[hit]] - t0[rows[hit]]))

    def save(self, path):
        """Write every span (name id, start, end, parent, in-step) and the name table."""
        name, t0, t1, parent, in_step = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=t0, end=t1,
                            parent=parent, in_step=in_step)
