"""In-memory spans around the calls into each layer of dpledger.

The tracer replaces module-level names that callers look up (for example
`dpledger.cli.deserialize`, which is the name `cli` calls) and a few class
attributes with wrappers that record a span: name, start, end, parent and
the operation it belongs to. A target that does not exist is reported as
absent and skipped, so a refactor that renames a function loses that
span, never the benchmark.

Spans carry only configuration, ledger facts and counts the configuration
fixes (`ALLOWED_ATTRS`), plus wall-clock times. No span records a
realized Poisson batch size, a clip fraction or a true metric: wrappers
never look at the data arrays or the samples passing through them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _arg(args, kwargs, pos, key):
    value = args[pos] if len(args) > pos else kwargs.get(key)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _len(value):
    return len(value) if isinstance(value, (bytes, list, tuple)) else None


# (module, attribute, span name, attributes from the call, attributes
# from the result). A dotted attribute names a method of a class.
TARGETS = (
    ("dpledger.cli", "main", "cli.main",
     lambda a, k: {"command": str(a[0][0])} if a and a[0] else {}, None),
    ("dpledger.cli", "deserialize", "ledger.deserialize",
     lambda a, k: {"bytes": _len(a[0]) if a else None}, None),
    ("dpledger.cli", "account_ledger", "accountant.account_ledger", None, None),
    ("dpledger.cli", "dp_sgd_train", "harness.dp_sgd_train", None, None),
    ("dpledger.harness", "generate_synthetic", "harness.generate_synthetic", None, None),
    ("dpledger.harness", "per_example_gradients", "harness.per_example_gradients",
     None, None),
    ("dpledger.harness", "draw_sample", "sampling.draw_sample", None, None),
    ("dpledger.harness", "microbatch_reduce", "mechanisms.microbatch_reduce",
     None, None),
    ("dpledger.harness", "run_partitioned_round", "mechanisms.run_partitioned_round",
     None, None),
    ("dpledger.harness", "serialize", "ledger.serialize",
     None, lambda r: {"bytes": _len(r)}),
    ("dpledger.harness", "account_ledger", "accountant.account_ledger", None, None),
    ("dpledger.accountant", "formal_ledger", "ledger.formal_ledger", None, None),
    ("dpledger.accountant", "rdp_step", "accountant.rdp_step", None, None),
    ("dpledger.accountant", "compose_rdp", "accountant.compose_rdp",
     lambda a, k: {"profiles": _len(a[0]) if a else None}, None),
    ("dpledger.accountant", "epsilon_at_delta", "accountant.epsilon_at_delta",
     None, None),
    ("dpledger.prng", "SecureStream.standard_normal", "prng.standard_normal",
     lambda a, k: {"count": _arg(a, k, 1, "count")}, None),
    ("dpledger.prng", "SecureStream.take_bytes", "prng.take_bytes",
     lambda a, k: {"bytes": _arg(a, k, 1, "n")}, None),
    ("dpledger.ledger", "Ledger.record_sample", "ledger.record", None, None),
    ("dpledger.ledger", "Ledger.record_sum_query", "ledger.record", None, None),
    ("dpledger.ledger", "Ledger.close_round", "ledger.record", None, None),
)  # fmt: skip

ALLOWED_ATTRS = frozenset({"command", "bytes", "profiles", "count"})

# Per-layer metrics: (name, unit, better). Times are busy seconds summed
# over the traced operations; counts are totals over the same operations.
LAYER_METRICS = (
    ("prng.normal_count", "count", "lower"),
    ("prng.keystream_bytes", "bytes", "lower"),
    ("prng.normal_s", "s", "lower"),
    ("sampling.draw_calls", "count", "lower"),
    ("sampling.draw_s", "s", "lower"),
    ("mechanisms.round_self_s", "s", "lower"),
    ("mechanisms.microbatch_s", "s", "lower"),
    ("harness.data_s", "s", "lower"),
    ("harness.grad_s", "s", "lower"),
    ("harness.loop_self_s", "s", "lower"),
    ("ledger.record_calls", "count", "lower"),
    ("ledger.record_s", "s", "lower"),
    ("ledger.serialize_s", "s", "lower"),
    ("ledger.bytes_written", "bytes", "lower"),
    ("ledger.deserialize_s", "s", "lower"),
    ("ledger.bytes_read", "bytes", "lower"),
    ("ledger.formal_s", "s", "lower"),
    ("accountant.rdp_step_calls", "count", "lower"),
    ("accountant.rdp_step_distinct", "count", "lower"),
    ("accountant.rdp_step_s", "s", "lower"),
    ("accountant.compose_profiles", "count", "lower"),
    ("accountant.compose_s", "s", "lower"),
    ("accountant.account_self_s", "s", "lower"),
    ("accountant.epsilon_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent_targets", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Spans as parallel lists, kept in memory until `write`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.attrs: list[dict | None] = []
        self.rdp_args: dict[int, tuple] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, span, before, after in TARGETS:
            owner, name = self._resolve(module_name, attr)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span, before, after))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []

    @staticmethod
    def _resolve(module_name: str, attr: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, attr
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, name
        return owner, name

    def _wrap(self, fn, span_name, before, after):
        rdp = span_name == "accountant.rdp_step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(span_name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.attrs.append(before(args, kwargs) if before else None)
            if rdp:
                self.rdp_args[idx] = tuple(args[:2]) + tuple(sorted(kwargs.items()))
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if after:
                self.attrs[idx] = after(result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans [first, last)."""
        dur = [0.0] * last
        child = [0.0] * last
        for i in range(first, last):
            dur[i] = self.ends[i] - self.starts[i]
            p = self.parents[i]
            if p >= first:
                child[p] += dur[i]
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        attr_sum: dict[tuple[str, str], int] = {}
        for i in range(first, last):
            name = self.names[i]
            total[name] = total.get(name, 0.0) + dur[i]
            self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            for key, value in (self.attrs[i] or {}).items():
                if isinstance(value, int):
                    attr_sum[name, key] = attr_sum.get((name, key), 0) + value

        rdp = [i for i in range(first, last) if self.names[i] == "accountant.rdp_step"]
        return {
            "prng.normal_count": attr_sum.get(("prng.standard_normal", "count"), 0),
            "prng.keystream_bytes": attr_sum.get(("prng.take_bytes", "bytes"), 0),
            "prng.normal_s": total.get("prng.standard_normal", 0.0),
            "sampling.draw_calls": calls.get("sampling.draw_sample", 0),
            "sampling.draw_s": total.get("sampling.draw_sample", 0.0),
            "mechanisms.round_self_s": self_time.get("mechanisms.run_partitioned_round", 0.0),
            "mechanisms.microbatch_s": total.get("mechanisms.microbatch_reduce", 0.0),
            "harness.data_s": total.get("harness.generate_synthetic", 0.0),
            "harness.grad_s": total.get("harness.per_example_gradients", 0.0),
            "harness.loop_self_s": self_time.get("harness.dp_sgd_train", 0.0),
            "ledger.record_calls": calls.get("ledger.record", 0),
            "ledger.record_s": total.get("ledger.record", 0.0),
            "ledger.serialize_s": total.get("ledger.serialize", 0.0),
            "ledger.bytes_written": attr_sum.get(("ledger.serialize", "bytes"), 0),
            "ledger.deserialize_s": total.get("ledger.deserialize", 0.0),
            "ledger.bytes_read": attr_sum.get(("ledger.deserialize", "bytes"), 0),
            "ledger.formal_s": total.get("ledger.formal_ledger", 0.0),
            "accountant.rdp_step_calls": len(rdp),
            "accountant.rdp_step_distinct": len({self.rdp_args[i] for i in rdp}),
            "accountant.rdp_step_s": total.get("accountant.rdp_step", 0.0),
            "accountant.compose_profiles": attr_sum.get(
                ("accountant.compose_rdp", "profiles"), 0
            ),
            "accountant.compose_s": total.get("accountant.compose_rdp", 0.0),
            "accountant.account_self_s": self_time.get("accountant.account_ledger", 0.0),
            "accountant.epsilon_s": total.get("accountant.epsilon_at_delta", 0.0),
            "cli.self_s": self_time.get("cli.main", 0.0),
            "trace.spans": last - first,
            "trace.absent_targets": len(self.absent),
        }  # fmt: skip

    def records(self, first: int, last: int):
        """Spans [first, last) as dicts; `start` and `end` are the only
        timing fields."""
        for i in range(first, last):
            rec = {
                "id": i,
                "op": self.ops[i],
                "name": self.names[i],
                "parent": self.parents[i],
                "start": self.starts[i],
                "end": self.ends[i],
            }
            if self.attrs[i]:
                rec["attrs"] = self.attrs[i]
            yield rec

    def write(self, path, first: int, last: int) -> None:
        with open(path, "w") as fh:
            for rec in self.records(first, last):
                fh.write(json.dumps(rec, sort_keys=True))
                fh.write("\n")
