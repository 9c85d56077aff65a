"""Where the traced run puts its spans, and the per-layer metrics it derives.

The layers are klscope's modules.  Wrappers go on the names callers use: the
driver's and optimizer's imported names for the library calls they make, and
the defining modules' names for the benchmark's own direct calls.  Private
functions (the optimizer's evaluation and polar map, its Pauli stack) are not
wrapped, so one optimizer iteration is not split further.

Counters come from public return values and arguments only: restart summaries
of ``OptimizationResult``, the qubit count of a returned ``WeightEnumerator``,
the shapes of the code and error basis handed to a KL call, and the guard
error an enumerator call raises.
"""

from klscope import codespace, driver, families, optimizer, pauli, stabilizer

from tracing import self_times
from workloads import is_feasible_target


def _kl_info(args, kwargs, result):
    code, basis = args[0], args[1]
    # the (n_ops, 2^n, K) complex stack a KL contraction forms, as computed
    return {"kind": "kl", "bytes": len(basis) * 2 ** code.n * code.K * 16}


def _lu_info(args, kwargs, result):
    return {"kind": "lu"}


def _extract_info(args, kwargs, result):
    return {"kind": "extract", "n": result.n}


def _enumerator_info(args, kwargs, result):
    return {"words": 4 ** result.n}


def _optimize_info(args, kwargs, result):
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    config = (args[4] if len(args) > 4 else kwargs.get("config")) or optimizer.OptimizerConfig()
    stop, kl_tol = config.stop_on_loss or 0.0, config.kl_tol
    summaries = result.restart_summaries
    feasible = spec.target_length is not None and is_feasible_target(spec.target_length ** 2)
    return {
        "restarts": result.restarts_used,
        "iterations": sum(s.iterations for s in summaries),
        "feasible": feasible,
        "hits": sum(s.final_loss <= stop for s in summaries),
        "stalls": sum(s.kl_violation <= kl_tol and s.final_loss > stop for s in summaries),
    }


def _direct(module, attr, layer, info=None):
    return (module, attr, f"{module.__name__}.{attr}", layer, info)


def targets():
    """``(module, attr, span name, layer, info)`` for every wrapped function."""
    return [
        # names the driver and optimizer call the library through
        (driver, "optimize", "klscope.driver.optimize", "optimizer", _optimize_info),
        (driver, "kl_violation", "klscope.driver.kl_violation", "codespace", _kl_info),
        (driver, "signature_vector", "klscope.driver.signature_vector", "codespace", _kl_info),
        (driver, "weight_enumerators", "klscope.driver.weight_enumerators", "enumerators",
         _enumerator_info),
        (driver, "apply_local_unitary", "klscope.driver.apply_local_unitary", "codespace",
         _lu_info),
        (optimizer, "codespace_kl_violation", "klscope.optimizer.codespace_kl_violation",
         "codespace", _kl_info),
        (optimizer, "signature_vector", "klscope.optimizer.signature_vector", "codespace",
         _kl_info),
        (optimizer, "stiefel_map", "klscope.optimizer.stiefel_map", "optimizer", None),
        # the benchmark's own direct calls
        _direct(driver, "sweep", "driver"),
        _direct(driver, "verify_code", "driver"),
        _direct(pauli, "enumerate_error_basis", "pauli"),
        _direct(stabilizer, "parse_generators", "stabilizer"),
        _direct(stabilizer, "builtin", "stabilizer"),
        _direct(stabilizer, "codespace_from_stabilizer", "stabilizer", _extract_info),
        _direct(families, "single_param_frame_623", "families"),
        _direct(families, "code_623", "families"),
        _direct(families, "cyclic_coeffs_from_lambda", "families"),
        _direct(families, "cyclic_code_723", "families"),
        _direct(families, "perm_code_723", "families"),
        _direct(codespace, "kl_violation", "codespace", _kl_info),
        _direct(codespace, "signature_vector", "codespace", _kl_info),
        _direct(codespace, "apply_local_unitary", "codespace", _lu_info),
        _direct(codespace, "lambda_star", "codespace"),
    ]


# per-layer metric -> (unit, better)
PER_LAYER = {
    "pauli.basis_build_s": ("s", "lower"),
    "codespace.kl_calls": ("count", "lower"),
    "codespace.kl_s": ("s", "lower"),
    "codespace.kl_ms_per_call": ("ms", "lower"),
    "codespace.kl_bytes_computed": ("bytes", "lower"),
    "codespace.lu_calls": ("count", "lower"),
    "codespace.lu_s": ("s", "lower"),
    "stabilizer.extract_calls": ("count", "lower"),
    "stabilizer.extract_s": ("s", "lower"),
    "stabilizer.extract_ms.n8": ("ms", "lower"),
    "stabilizer.extract_ms.n9": ("ms", "lower"),
    "families.construct_s": ("s", "lower"),
    "enumerators.calls": ("count", "lower"),
    "enumerators.s": ("s", "lower"),
    "enumerators.words": ("count", "lower"),
    "enumerators.us_per_word": ("us", "lower"),
    "enumerators.refused": ("count", "lower"),
    "optimizer.calls": ("count", "lower"),
    "optimizer.s": ("s", "lower"),
    "optimizer.restarts": ("count", "lower"),
    "optimizer.restarts_per_point": ("count", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.iterations_per_restart": ("count", "lower"),
    "optimizer.ms_per_iteration": ("ms", "lower"),
    "optimizer.hit_rate": ("ratio", "higher"),
    "optimizer.feasible_restarts": ("count", "lower"),
    "optimizer.stalls": ("count", "lower"),
    "driver.sweep_s": ("s", "lower"),
    "driver.verify_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes):
    """Per-layer figures for one set-up plus one pass of the op list.

    Spans with op id ``setup`` count once; the others are averaged over the
    ``passes`` traced passes.  Times are self times.  Returns (metrics,
    self time per layer).
    """
    selfs = self_times(spans)
    total = {}
    layer_self = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for span, own in zip(spans, selfs):
        w = 1.0 if span.op == "setup" else 1.0 / passes
        info = span.info
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + w * own
        kind = info.get("kind")
        if kind in ("kl", "lu"):
            add(f"{kind}_calls", w)
            add(f"{kind}_s", w * own)
            add(f"{kind}_bytes", w * info.get("bytes", 0))
        elif kind == "extract":
            add("extract_calls", w)
            add("extract_s", w * own)
            add(f"extract_n{info['n']}_s", own)
            add(f"extract_n{info['n']}_calls", 1)
        if span.layer == "enumerators":
            add("enum_calls", w)
            add("enum_s", w * own)
            if span.error is not None and "enumerator guard" in span.error:
                add("enum_refused", w)
            else:
                add("enum_words", w * info.get("words", 0))
                add("enum_word_s", w * own)
        if span.name == "klscope.driver.optimize":
            add("opt_calls", w)
            for key in ("restarts", "iterations"):
                add(f"opt_{key}", w * info.get(key, 0))
            if info.get("feasible"):
                add("opt_feasible_restarts", w * info["restarts"])
                add("opt_feasible_hits", w * info["hits"])
                add("opt_feasible_stalls", w * info["stalls"])
        elif span.name == "klscope.driver.sweep":
            add("sweep_s", w * own)
        elif span.name == "klscope.driver.verify_code":
            add("verify_s", w * own)

    t = lambda key: total.get(key, 0.0)  # noqa: E731
    optimizer_s = layer_self.get("optimizer", 0.0)
    metrics = {
        "pauli.basis_build_s": layer_self.get("pauli", 0.0),
        "codespace.kl_calls": t("kl_calls"),
        "codespace.kl_s": t("kl_s"),
        "codespace.kl_ms_per_call": 1e3 * _ratio(t("kl_s"), t("kl_calls")),
        "codespace.kl_bytes_computed": t("kl_bytes"),
        "codespace.lu_calls": t("lu_calls"),
        "codespace.lu_s": t("lu_s"),
        "stabilizer.extract_calls": t("extract_calls"),
        "stabilizer.extract_s": t("extract_s"),
        "stabilizer.extract_ms.n8": 1e3 * _ratio(t("extract_n8_s"), t("extract_n8_calls")),
        "stabilizer.extract_ms.n9": 1e3 * _ratio(t("extract_n9_s"), t("extract_n9_calls")),
        "families.construct_s": layer_self.get("families", 0.0),
        "enumerators.calls": t("enum_calls"),
        "enumerators.s": t("enum_s"),
        "enumerators.words": t("enum_words"),
        "enumerators.us_per_word": 1e6 * _ratio(t("enum_word_s"), t("enum_words")),
        "enumerators.refused": t("enum_refused"),
        "optimizer.calls": t("opt_calls"),
        "optimizer.s": optimizer_s,
        "optimizer.restarts": t("opt_restarts"),
        "optimizer.restarts_per_point": _ratio(t("opt_restarts"), t("opt_calls")),
        "optimizer.iterations": t("opt_iterations"),
        "optimizer.iterations_per_restart": _ratio(t("opt_iterations"), t("opt_restarts")),
        "optimizer.ms_per_iteration": 1e3 * _ratio(optimizer_s, t("opt_iterations")),
        "optimizer.hit_rate": _ratio(t("opt_feasible_hits"), t("opt_feasible_restarts")),
        "optimizer.feasible_restarts": t("opt_feasible_restarts"),
        "optimizer.stalls": t("opt_feasible_stalls"),
        "driver.sweep_s": t("sweep_s"),
        "driver.verify_s": t("verify_s"),
    }
    return metrics, layer_self
