"""Per-layer metrics of a traced run, one table for every workload.

A metric whose layer a workload never enters reads 0 (on desk3-cnn the
Siamese-only ``model.locc_batch``, ``model.permute_batch`` and
``model.siamese_loss`` metrics).  Per-round figures are means over the
traced rounds; per-step figures are means over the full-batch training steps
of those rounds.
"""

_TABLE_SECTIONS = ("pure_separable", "pure_entangled", "mixed_separable_mixture",
                   "mixed_separable_kron", "mixed_entangled_def", "mixed_entangled_traced")
# Corpus sections by set: training and validation sets share one table.
SECTIONS = {
    "train": _TABLE_SECTIONS,
    "valid": _TABLE_SECTIONS,
    "test": ("pure_separable", "pure_entangled", "mixed_separable", "mixed_entangled"),
    "pptes": ("horodecki", "acin", "upb"),
}

KERNEL_LAYERS = ("conv1", "conv2", "conv3", "dense_flat", "dense_stack")


def _table():
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = [
        ("qcore.eigvalsh.calls", "count", "lower"),
        ("qcore.eigvalsh.s", "s", "lower"),
        ("qcore.partial_trace.s", "s", "lower"),
        ("qcore.kron_all.s", "s", "lower"),
        ("stategen.circuit.calls", "count", "lower"),
        ("stategen.circuit.s", "s", "lower"),
        ("stategen.apply_gate.calls", "count", "lower"),
    ]
    rows += [(f"stategen.{f}.s", "s", "lower")
             for f in ("haar", "mix", "traced", "kron_mixed", "randomize_local")]
    rows += [
        ("entanglement.negativity.calls", "count", "lower"),
        ("entanglement.negativity.s", "s", "lower"),
        ("entanglement.negativity.us_per_state", "us", "lower"),
        ("entanglement.partial_transpose.s", "s", "lower"),
    ]
    for group, names in SECTIONS.items():
        for sec in names:
            rows.append((f"dataset.section.{group}.{sec}.states_per_s", "states/s", "higher"))
            rows.append((f"dataset.section.{group}.{sec}.neg_evals", "evals/state", "lower"))
    rows += [
        ("dataset.save.mb_per_s", "MB/s", "higher"),
        ("dataset.load.mb_per_s", "MB/s", "higher"),
        ("dataset.bytes", "bytes", "lower"),
        ("dataset.arrays.s", "s", "lower"),
    ]
    for layer in KERNEL_LAYERS:
        rows += [(f"autograd.{layer}.fwd_ms", "ms", "lower"), (f"autograd.{layer}.bwd_ms", "ms", "lower")]
    rows += [
        ("autograd.relu.ms", "ms", "lower"),
        ("autograd.sigmoid_bce.ms", "ms", "lower"),
        ("autograd.adam.ms", "ms", "lower"),
        ("autograd.backward.self_ms", "ms", "lower"),
    ]
    for layer in KERNEL_LAYERS:
        rows += [(f"autograd.{layer}.gflop_per_step", "GFLOP-computed", "lower"),
                 (f"autograd.{layer}.mb_moved_per_step", "MB-computed", "lower")]
    rows += [
        ("model.forward.ms", "ms", "lower"),
        ("model.encode_batch.s", "s", "lower"),
        ("model.locc_batch.ms", "ms", "lower"),
        ("model.permute_batch.ms", "ms", "lower"),
        ("model.siamese_loss.self_ms", "ms", "lower"),
        ("model.predict_encoded.s", "s", "lower"),
    ]
    rows += [(f"harness.{ph}.s", "s", "lower")
             for ph in ("gen", "io", "train", "validate", "eval", "self", "wall", "untraced_wall",
                        "trace_overhead")]
    return rows


METRICS = _table()


def per_layer(tracer, untraced, traced, kernels) -> dict:
    """{name: (value, unit)} for every metric in ``METRICS``."""
    summary = tracer.summary()
    rounds = len(traced)
    steps = tracer.full_steps_traced

    def get(span, key="s"):
        return summary.get(span, {}).get(key, 0.0)

    def per_round(span, key="s"):
        return get(span, key) / rounds

    def per_step_ms(*spans, key="step_s"):
        return 1e3 * sum(get(s, key) for s in spans) / steps if steps else 0.0

    v = {
        "qcore.eigvalsh.calls": per_round("qcore.eigvalsh", "calls"),
        "stategen.circuit.calls": per_round("stategen.circuit", "calls"),
        "stategen.apply_gate.calls": per_round("stategen.apply_gate", "calls"),
        "entanglement.negativity.calls": per_round("entanglement.negativity", "calls"),
        "dataset.bytes": sum(r.corpus_bytes for r in traced) / rounds,
    }
    for span in ("qcore.eigvalsh", "qcore.partial_trace", "qcore.kron_all", "stategen.circuit",
                 "stategen.haar", "stategen.mix", "stategen.traced", "stategen.kron_mixed",
                 "stategen.randomize_local", "entanglement.negativity",
                 "entanglement.partial_transpose", "dataset.arrays", "model.encode_batch",
                 "model.predict_encoded"):
        v[f"{span}.s"] = per_round(span)
    neg_calls = get("entanglement.negativity", "calls")
    v["entanglement.negativity.us_per_state"] = (
        1e6 * get("entanglement.negativity") / neg_calls if neg_calls else 0.0)

    for group, names in SECTIONS.items():
        for sec in names:
            key = (group, sec)
            states, secs = tracer.section_states.get(key, 0), tracer.section_s.get(key, 0.0)
            v[f"dataset.section.{group}.{sec}.states_per_s"] = states / secs if secs else 0.0
            v[f"dataset.section.{group}.{sec}.neg_evals"] = (
                tracer.section_neg_evals.get(key, 0) / states if states else 0.0)
    for op in ("save", "load"):
        secs = get(f"dataset.{op}")
        moved = sum(r.io_bytes for r in traced) / 2  # half written, half read
        v[f"dataset.{op}.mb_per_s"] = moved / 1e6 / secs if secs else 0.0

    for layer in KERNEL_LAYERS:
        v[f"autograd.{layer}.fwd_ms"] = per_step_ms(f"autograd.{layer}.fwd")
        v[f"autograd.{layer}.bwd_ms"] = per_step_ms(f"autograd.{layer}.bwd")
    v["autograd.relu.ms"] = per_step_ms("autograd.relu.fwd", "autograd.relu.bwd")
    v["autograd.sigmoid_bce.ms"] = per_step_ms("autograd.sigmoid_bce.fwd", "autograd.sigmoid_bce.bwd")
    v["autograd.adam.ms"] = per_step_ms("autograd.adam")
    v["autograd.backward.self_ms"] = per_step_ms("autograd.backward", key="step_self_s")
    for layer in KERNEL_LAYERS:
        gflop, mb = kernels[layer] if steps else (0.0, 0.0)
        v[f"autograd.{layer}.gflop_per_step"] = gflop
        v[f"autograd.{layer}.mb_moved_per_step"] = mb
    v["model.forward.ms"] = per_step_ms("model.forward")
    v["model.locc_batch.ms"] = per_step_ms("model.locc_batch")
    v["model.permute_batch.ms"] = per_step_ms("model.permute_batch")
    v["model.siamese_loss.self_ms"] = per_step_ms("model.siamese_loss", key="step_self_s")

    phases = {ph: get(f"phase.{ph}") / rounds for ph in ("gen", "io", "train", "eval")}
    phases["validate"] = tracer.under("model.predict_encoded", "harness.train_model") / rounds
    phases["train"] -= phases["validate"]
    wall = sum(r.wall_s for r in traced) / rounds
    untraced_wall = sum(r.wall_s for r in untraced) / len(untraced)
    for ph, secs in phases.items():
        v[f"harness.{ph}.s"] = secs
    v["harness.self.s"] = wall - sum(phases.values())
    v["harness.wall.s"] = wall
    v["harness.untraced_wall.s"] = untraced_wall
    v["harness.trace_overhead.s"] = wall - untraced_wall
    return {name: (float(v[name]), unit) for name, unit, _ in METRICS}


def kernel_counts(arch, batch: int, branches: int) -> dict:
    """Computed GFLOP and MB moved per training step for conv1-3 and the dense layers.

    Counts are the algorithmic minimum for float64: a multiply-add is two
    flops; bytes are each operand read once and each result written once,
    forward and backward (kernel, bias and, past the first layer, input
    gradients).  ``branches`` forward/backward passes run per step.
    """
    out = {}
    widths = [2] + arch.channel_widths()
    sizes = arch.spatial_sizes()
    k2 = arch.kernel ** 2
    for i in range(1, arch.conv_layers + 1):
        cin, cout, h, ho = widths[i - 1], widths[i], sizes[i - 1], sizes[i]
        macs = batch * ho * ho * cout * cin * k2
        x, kern, y = batch * cin * h * h, cout * cin * k2, batch * cout * ho * ho
        passes = 3 if i > 1 else 2  # forward, kernel grad, input grad
        words = (x + kern + cout + y) + (y + x + kern + kern + cout + (x if i > 1 else 0))
        out[f"conv{i}"] = (passes * 2 * macs, 8 * words)
    dims = [arch.flatten_size] + [arch.fc_units] * arch.fc_layers + [arch.num_outputs]
    for name, layers in (("dense_flat", [(dims[0], dims[1])]), ("dense_stack", list(zip(dims[1:-1], dims[2:])))):
        flops = words = 0
        for f, u in layers:
            flops += 3 * 2 * batch * f * u
            words += (batch * f + f * u + u + batch * u) + (batch * u + batch * f + 2 * f * u + u + batch * f)
        out[name] = (flops, 8 * words)
    return {k: (branches * fl / 1e9, branches * by / 1e6) for k, (fl, by) in out.items()}
