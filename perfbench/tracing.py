"""Spans and counts around calls into each skyledger module, from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install()`` swaps a
timing wrapper in for each hooked name *where callers look it up* and
``uninstall()`` puts the originals back, so an untraced iteration runs the
unmodified program:

* module functions imported by name into another module are wrapped in
  the importing module (``skyledger.uss.decode_rid``,
  ``skyledger.sim.encode_rid``, ``skyledger.persistence.verify_blocks``);
* functions called as ``geo.x`` or ``economics.x`` are wrapped on their
  own module;
* methods are wrapped on their class. Contract ops are bound when the
  contract registers them, so install before the ``World`` is built.

A hook whose target a refactor removed is reported as absent and skipped.

Each span is ``[name, start, end, parent index, child time, tag]``. A
span's self time is its duration minus the time its direct children
cover; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path
from typing import Any, Callable

# (layer span name, module, attribute path within the module)
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("ledger.submit", "skyledger.ledger", "Ledger.submit"),
    ("ledger.seal_block", "skyledger.ledger", "Ledger.seal_block"),
    ("ledger.verify_blocks", "skyledger.persistence", "verify_blocks"),
    ("authority.op_register_drone", "skyledger.authority", "AuthorityContract.op_register_drone"),
    ("authority.op_get_drone", "skyledger.authority", "AuthorityContract.op_get_drone"),
    ("uss.op_subscribe", "skyledger.uss", "UssContract.op_subscribe"),
    ("uss.op_request_quote", "skyledger.uss", "UssContract.op_request_quote"),
    ("uss.op_request_plan", "skyledger.uss", "UssContract.op_request_plan"),
    ("uss.op_report_drone", "skyledger.uss", "UssContract.op_report_drone"),
    ("uss.op_report_completion", "skyledger.uss", "UssContract.op_report_completion"),
    ("uss.schedule_route", "skyledger.uss", "UssContract.schedule_route"),
    ("uss.congestion_count", "skyledger.uss", "UssContract.congestion_count"),
    ("rid.decode_rid", "skyledger.uss", "decode_rid"),
    ("rid.verify_rid_vc", "skyledger.uss", "verify_rid_vc"),
    ("rid.compute_rid_vc", "skyledger.uss", "compute_rid_vc"),
    ("rid.encode_rid", "skyledger.sim", "encode_rid"),
    ("economics.congestion_surcharge", "skyledger.economics", "congestion_surcharge"),
    ("economics.dynamic_fee", "skyledger.economics", "dynamic_fee"),
    ("economics.reputation", "skyledger.economics", "reputation"),
    ("economics.update_k", "skyledger.economics", "update_k"),
    ("geo.within_range", "skyledger.geo", "within_range"),
    ("geo.parse_dms_pair", "skyledger.geo", "parse_dms_pair"),
    ("geo.route_occupancy", "skyledger.geo", "route_occupancy"),
    ("sim.setup", "skyledger.sim", "World.__init__"),
    ("sim.walk", "skyledger.sim", "World._walk_reporters"),
    ("sim.broadcast", "skyledger.sim", "World._broadcast_phase"),
    ("sim.report", "skyledger.sim", "World._report_phase"),
    ("sim.completion", "skyledger.sim", "World._completion_phase"),
    ("sim.emit_metrics", "skyledger.sim", "emit_metrics"),
    ("persistence.write_metrics", "skyledger.persistence", "write_metrics"),
    ("persistence.write_chain_jsonl", "skyledger.persistence", "write_chain_jsonl"),
    ("persistence.write_trace_csv", "skyledger.persistence", "write_trace_csv"),
    ("persistence.write_events_jsonl", "skyledger.persistence", "write_events_jsonl"),
    ("persistence.write_reputation_surface_csv", "skyledger.persistence", "write_reputation_surface_csv"),
    ("persistence.write_congestion_fee_csv", "skyledger.persistence", "write_congestion_fee_csv"),
    ("persistence.snapshot_world", "skyledger.persistence", "snapshot_world"),
    ("persistence.restore_world", "skyledger.persistence", "restore_world"),
    ("persistence.verify_chain_file", "skyledger.persistence", "verify_chain_file"),
    ("persistence.read_chain_jsonl", "skyledger.persistence", "read_chain_jsonl"),
)

# Spans whose return value the metrics need: what the tag records.
_TAGGERS: dict[str, Callable[[Any], Any]] = {
    "ledger.submit": lambda rec: (rec.op, rec.status),
    "geo.within_range": bool,
}

NAME, START, END, PARENT, CHILD, TAG = range(6)


class Tracer:
    def __init__(self, hooks: tuple[tuple[str, str, str], ...] = HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[list[Any]] = []
        self.phase_marks: list[tuple[str, int]] = []  # (phase, index of its first span)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def mark_phase(self, phase: str) -> None:
        self.phase_marks.append((phase, len(self.spans)))

    def install(self) -> None:
        self.absent = []
        for name, module_name, path in self.hooks:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        tagger = _TAGGERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += end - span[START]
            if tagger is not None:
                span[TAG] = tagger(result)
            return result

        return traced

    def phase_of_spans(self) -> list[str]:
        """The benchmark phase each span started in."""
        phases = [""] * len(self.spans)
        bounds = self.phase_marks + [("", len(self.spans))]
        for (phase, lo), (_, hi) in zip(bounds, bounds[1:]):
            phases[lo:hi] = [phase] * (hi - lo)
        return phases

    def write_spans(self, path: Path) -> None:
        """One CSV row per span, times in microseconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        phases = self.phase_of_spans()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,phase,start_us,end_us,parent,self_us\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[NAME]},{phases[i]},{(s[START] - origin) * 1e6:.1f},{(s[END] - origin) * 1e6:.1f},"
                    f"{s[PARENT]},{(s[END] - s[START] - s[CHILD]) * 1e6:.1f}\n"
                )
