"""In-process span tracer for the traced benchmark runs.

`install` wraps public functions and methods of the `miflab` modules
inside the benchmark process; no source file is edited.  Every wrapped
call becomes a span (name, start, end, parent) kept in compact arrays;
the arrays are written out once, after the workload has finished.

Alongside the raw spans the tracer keeps per-name aggregates that the
runner (run.py) turns into per-layer metrics:

- `calls`: number of spans of that name;
- `outer_s`: time in spans of that name not nested in another span of
  the same name (recursion is counted once);
- `self_s`: span time minus the time covered by its direct child spans;

and per layer the time spent inside any of its spans, counted once when
they nest (`layer_outer_s`), and the self time per benchmark phase.

Hot per-element methods (`GElement.is_trivial`, `GElement.__mul__`,
`LimitGroup.canonical_aword`) are counted but not timed, so their cost
stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

import numpy as np

def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays an object stores, found among its
    attributes and inside lists or tuples of them (computed, not measured)."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, time covered by children]
        self._depth: list[int] = []  # open spans per name id
        self._layer_of: list[str] = []
        self._layer_depth: dict[str, int] = {}
        self.layer_outer_s: dict[str, float] = {}
        self.calls: list[int] = []
        self.outer_s: list[float] = []
        self.self_s: list[float] = []
        self.phase = "setup"
        self.phase_self: dict[str, dict[str, float]] = {}
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._layer_of.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.outer_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> None:
        self._open(self._name_id(name))

    def _open(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        layer = self._layer_of[nid]
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self._stack.append([idx, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        idx, nid, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        own = dur - covered
        self.calls[nid] += 1
        self.self_s[nid] += own
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.outer_s[nid] += dur
        layer = self._layer_of[nid]
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_outer_s[layer] = self.layer_outer_s.get(layer, 0.0) + dur
        per_layer = self.phase_self.setdefault(self.phase, {})
        per_layer[layer] = per_layer.get(layer, 0.0) + own
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, on_result=None, on_error=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "names": {
                name: {
                    "calls": self.calls[nid],
                    "outer_s": self.outer_s[nid],
                    "self_s": self.self_s[nid],
                }
                for nid, name in enumerate(self.names)
            },
            "layer_outer_s": self.layer_outer_s,
            "phase_self_s": self.phase_self,
            "counts": dict(self.counts),
            "spans": len(self.span_name),
        }

    def write_spans(self, path: str, run_id: int) -> None:
        """One JSON header line (names, run id), then one
        `[id, parent, name id, start, end]` line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"run": run_id, "names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{i},{self.span_parent[i]},{self.span_name[i]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}]\n"
                )


def _replace_everywhere(modules, original, wrapped) -> None:
    """Rebind every module-level name that refers to `original`, so callers
    that imported the function by name see the wrapper too."""
    for module in modules:
        for attr in [a for a, v in vars(module).items() if v is original]:
            setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every miflab layer."""
    import miflab
    from miflab import (
        coset_enum,
        grigorchuk,
        identity_lab,
        limit_group,
        mif_search,
        mixed_words,
        parser,
        presentations,
    )
    from miflab.errors import BudgetExceeded

    modules = (
        miflab, presentations, coset_enum, limit_group, mixed_words,
        parser, mif_search, identity_lab, grigorchuk,
    )
    count = tracer.count

    def function(module, name, on_result=None, on_error=None):
        original = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.timed(f"{layer}.{name}", original, on_result, on_error)
        _replace_everywhere(modules, original, wrapped)

    # presentations
    function(
        presentations, "build_window_presentation",
        lambda pres: count("presentations.relators", len(pres.relators)),
    )

    # coset_enum
    def enumerated(table):
        count("coset_enum.cosets", table.coset_count)
        count("coset_enum.table_bytes_computed", array_bytes(table))

    function(coset_enum, "enumerate_presentation", enumerated)

    # limit_group: table_for_width tells a disk load from an enumeration by
    # whether an enumeration span ran inside it.
    enum_id = tracer._name_id("coset_enum.enumerate_presentation")
    original_tfw = limit_group.LimitGroup.table_for_width
    timed_tfw = tracer.timed("limit_group.LimitGroup.table_for_width", original_tfw)

    def table_for_width(self, width):
        known = len(self.cached_tables())
        enumerations = tracer.calls[enum_id]
        table = timed_tfw(self, width)
        if len(self.cached_tables()) > known:
            built = tracer.calls[enum_id] > enumerations
            count("limit_group.tables_built" if built else "limit_group.tables_loaded")
        return table

    limit_group.LimitGroup.table_for_width = table_for_width
    for cls, name in (
        (limit_group.LimitGroup, "canonical_aword"),
        (limit_group.GElement, "is_trivial"),
        (limit_group.GElement, "__mul__"),
    ):
        setattr(cls, name, tracer.counted(f"limit_group.{cls.__name__}.{name}", getattr(cls, name)))

    # mixed_words
    function(mixed_words, "reduce")
    function(mixed_words, "evaluate")

    # parser
    function(parser, "parse_mixed_word")
    function(parser, "parse_element")

    # mif_search
    def found(result):
        count("mif_search.candidates_tried", result.candidates_tried)
        if result.status == mif_search.WITNESS_FOUND:
            count("mif_search.witnesses_found")

    function(mif_search, "enumerate_words")
    function(mif_search, "find_witness", found)
    function(mif_search, "drive")
    function(mif_search, "write_certificates")
    function(mif_search, "verify_certificates")

    # identity_lab
    function(identity_lab, "small_group")
    function(
        identity_lab, "direct_product",
        lambda group: count("identity_lab.product_table_bytes_computed", array_bytes(group)),
    )
    function(
        identity_lab, "wreath_product",
        lambda data: count("identity_lab.product_table_bytes_computed", array_bytes(data.group)),
    )

    def verdict(result):
        count("identity_lab.verdicts")
        count("identity_lab.substitutions", result.substitutions_checked)

    def refused(exc):
        if isinstance(exc, BudgetExceeded):
            count("identity_lab.refusals")

    function(identity_lab, "is_mixed_identity", verdict, refused)
    function(
        identity_lab, "factorial_identity_check",
        lambda holds: count("identity_lab.verdicts"),
    )

    # grigorchuk
    function(
        grigorchuk, "verify_grig_identity",
        lambda report: count("grigorchuk.words_checked", report.words_checked),
    )
    function(grigorchuk, "grig_identity_word")
    function(grigorchuk, "is_trivial")
    function(grigorchuk, "acts_trivially_to_depth")
