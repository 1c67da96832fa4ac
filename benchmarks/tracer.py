"""Span recorder that traces genomask from outside the package.

`Tracer.install()` replaces each public function or method listed in
`TARGETS` by a wrapper that records one span per call: the span's name,
start, end and parent (the span open on the caller's side).  Inclusive and
self times are derived from those records afterwards, so the wrapper itself
only appends four numbers.  Counters that the per-layer metrics need (rows,
LP variables, kernel FLOPs computed from array shapes) are taken from the
call's arguments and result.

A function is patched under every name it is bound to: `bounds` imports
`linear_program` from `simplex`, so both `simplex.linear_program` and
`bounds.linear_program` are replaced.  A method is patched on its class and
on every loaded subclass that overrides it.  A target that no longer exists
is reported in `absent`, not raised, so the benchmark keeps working when a
later change deletes code.  `uninstall()` restores every original object;
untraced runs never call `install()`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

MIB = float(1 << 20)


def _sample_rows(tr, args, result):
    tr.add("distributions.sample_batch.rows", result.shape[0])


def _joint_rows(tr, args, result):
    tr.add("distributions.joint_table.rows", result[0].shape[0])


def _outputs(tr, args, result):
    tr.add("mechanism.output_distribution.outputs", len(result.y_values))


def _false_count(tr, args, result):
    tr.add("bounds.markov_sufficient_condition_check.false", result is False)


def _lp_counts(tr, args, result):
    tr.add("simplex.linear_program.iterations", result.iterations)
    tr.add("bounds.lp_vars", len(args[0]))


def _table_size(tr, args, result):
    tr.peak("hmm.table_mib", result.values.nbytes / MIB)


def _kernel_shape(tr, args, result):
    model, K = args[0], args[2]
    batch, n = result.shape
    hypotheses = model.alphabet.size ** len(set(K))
    m = model.m
    # one (batch*hypotheses, m) @ (m, m) kernel product per position after 0
    tr.add("hmm.kernel_gflop", 2.0 * batch * hypotheses * m * m * (n - 1) / 1e9)
    tr.peak("hmm.belief_mib", batch * hypotheses * m * 8 / MIB)


#: (span name, module, attribute, counter hook or None)
TARGETS = [
    ("hmm.release_probability", "genomask.hmm",
     "BatchMaskingSession.release_probability", None),
    ("hmm.advance", "genomask.hmm", "BatchMaskingSession.advance", None),
    ("hmm.sensitive_backward_table", "genomask.hmm",
     "sensitive_backward_table", _table_size),
    ("hmm.mask_hmm_batch", "genomask.hmm", "mask_hmm_batch", _kernel_shape),
    ("hmm.erasure_rate_mc", "genomask.hmm", "erasure_rate_mc", None),
    ("hmm.sensitive_conditionals", "genomask.hmm", "sensitive_conditionals",
     None),
    ("distributions.sample_batch", "genomask.distributions",
     "SequenceModel.sample_batch", _sample_rows),
    ("distributions.joint_table", "genomask.distributions",
     "SequenceModel.joint_table", _joint_rows),
    ("mechanism.predictive", "genomask.mechanism",
     "EnumeratedMechanism.predictive", None),
    ("mechanism.release_table", "genomask.mechanism",
     "EnumeratedMechanism.release_table", None),
    ("mechanism.step_factor", "genomask.mechanism",
     "EnumeratedMechanism.step_factor", None),
    ("mechanism.output_distribution", "genomask.mechanism",
     "EnumeratedMechanism.output_distribution", _outputs),
    ("mechanism.stepwise_minima_rate", "genomask.mechanism",
     "EnumeratedMechanism.stepwise_minima_rate", None),
    ("bounds.markov_sufficient_condition_check", "genomask.bounds",
     "markov_sufficient_condition_check", _false_count),
    ("bounds.upper_bound_rate", "genomask.bounds", "upper_bound_rate", None),
    ("bounds.lp_optimal_rate", "genomask.bounds", "lp_optimal_rate", None),
    ("hardness.verify_deterministic_rule", "genomask.hardness",
     "verify_deterministic_rule", None),
    ("simplex.linear_program", "genomask.simplex", "linear_program",
     _lp_counts),
    ("experiments.run_experiment", "genomask.experiments", "run_experiment",
     None),
]

#: Counters filled by the hooks above (name, unit); reported even when 0.
COUNTERS = [
    ("hmm.kernel_gflop", "GFLOP"),
    ("hmm.belief_mib", "MiB"),
    ("hmm.table_mib", "MiB"),
    ("distributions.sample_batch.rows", "count"),
    ("distributions.joint_table.rows", "count"),
    ("mechanism.output_distribution.outputs", "count"),
    ("bounds.markov_sufficient_condition_check.false", "count"),
    ("bounds.lp_vars", "count"),
    ("simplex.linear_program.iterations", "count"),
]


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Records spans of the patched calls while installed."""

    def __init__(self):
        self.span_names: list[str] = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {name: 0.0 for name, _ in COUNTERS}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- counters ----------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counters[name] += float(value)

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters[name], float(value))

    # -- patching ----------------------------------------------------------

    def _wrap(self, span_id: int, fn, hook):
        name = self.span_names[span_id]
        clock = time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(span_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for span_id, (name, module_name, path, hook) in enumerate(TARGETS):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                owners = [c for c in _subclasses(cls) if attr in c.__dict__] \
                    if isinstance(cls, type) else []
                if not owners:
                    self.absent.append(name)
                    continue
                for owner in owners:
                    self._set(owner, attr,
                              self._wrap(span_id, owner.__dict__[attr], hook))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(span_id, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "genomask" or mod_name.startswith("genomask."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """`<span>.calls`, `<span>.s` and `<span>.self_s` for every target,
        plus the counters; values are (number, unit)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.span_names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.span_names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.s"] = (float(incl[i]), "s")
            out[f"{name}.self_s"] = (float(own[i]), "s")
        for name, unit in COUNTERS:
            out[name] = (self.counters[name], unit)
        return out
