"""Replay one spectrekit command with a span around every call into a layer.

Usage: python trace_job.py SPANS_FILE ARG...

Runs ``spectrekit.cli.run(ARG...)`` in this fresh interpreter, so caches in
the package start cold as they do under ``python -m spectrekit``.  Before
the run it replaces the layer functions listed in ``TRACED`` in every
spectrekit module that holds them, so calls between modules are seen too.
Spans stay in memory and are written to SPANS_FILE as JSON once the command
has finished; stdout and the exit code are the command's own.
"""

from __future__ import annotations

import json
import sys
import time

_t0 = time.perf_counter()
import spectrekit.cli  # noqa: E402  (timed; it imports every layer)
IMPORT_S = time.perf_counter() - _t0


def _decoded_points(args, result):
    if isinstance(result, list):
        return {"formats.decode_points": sum(len(s) for s in result)}
    if hasattr(result, "elements"):
        return {"formats.decode_points": len(result)}
    if hasattr(result, "terms"):
        return {"formats.decode_points": len(result.terms)}
    return None


def _subset_sums(args, result):
    return {"series.subset_sums_attempts": 1 << len(args[1]),
            "series.subset_sums_distinct": len(result)}


# (module, function, span label, counter hook) for each public entry point of
# a layer.  A hook maps (args, result) to the counts the call adds.
TRACED = [
    ("formats", "load_path", "formats.decode", None),
    ("formats", "decode_set", "formats.decode", _decoded_points),
    ("formats", "decode_family", "formats.decode", _decoded_points),
    ("formats", "decode_series", "formats.decode", _decoded_points),
    ("formats", "decode_pspec", "formats.decode", _decoded_points),
    ("formats", "encode_set", "formats.encode", None),
    ("formats", "dumps", "formats.encode",
     lambda a, r: {"formats.encode_bytes": len(r.encode())}),
    ("sets", "spectre", "sets.spectre",
     lambda a, r: {"sets.spectre_in_points": len(a[0]), "sets.spectre_out_points": len(r)}),
    ("sets", "center_of_distances", "sets.center", None),
    ("sets", "is_net_set", "sets.checks", None),
    ("sets", "is_non_sliding", "sets.checks", None),
    ("sets", "densify_to_netset", "sets.densify", None),
    ("hyperspace", "hausdorff", "hyperspace.hausdorff", None),
    ("hyperspace", "probe_spectre_continuity", "hyperspace.probe", None),
    ("hyperspace", "refute_spectre_image", "hyperspace.refute",
     lambda a, r: {"hyperspace.refute_scanned": r.scanned}),
    ("series", "_subset_sums", "series.subset_sums", _subset_sums),
    ("series", "find_gaps", "series.gaps", None),
    ("series", "first_gap_check_1d", "series.lemmas", None),
    ("series", "third_gap_check", "series.lemmas", None),
    ("series", "series_spectre_checks", "series.lemmas", None),
    ("planar", "axis_gaps", "planar.axis_gaps", None),
    ("planar", "rect_gaps", "planar.rect_gaps",
     lambda a, r: {"planar.rect_gaps_found": len(r)}),
    ("planar", "is_rect_gap", "planar.lemmas", None),
    ("planar", "first_gap_lemma_2d", "planar.lemmas", None),
    ("planar", "second_gap_lemma_2d", "planar.lemmas", None),
    ("planar", "third_gap_failure_witness", "planar.lemmas", None),
    ("psums", "psum_set", "psums.psum_set", None),
    ("psums", "gap_translation_check", "psums.gap_translate", None),
    ("psums", "cantor_pair_demo", "psums.demo", None),
    ("svg", "render_planar_svg", "svg.render", lambda a, r: {"svg.bytes": len(r)}),
]

# The planar module reaches subset sums through its own import of the
# series helper; those calls belong to the planar layer and count nothing
# toward the series counters.
RELABEL = {("planar", "_subset_sums"): ("planar.subset_sums", None)}


class Tracer:
    """Spans as [label, start, end, parent index, counts]; span 0 is the job."""

    def __init__(self):
        self.spans = [["cli.job", time.perf_counter(), None, None, None]]
        self.stack = [0]

    def wrap(self, fn, label, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, time.perf_counter(), None, stack[-1], None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[4] = hook(args, result)
                return result
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self):
        targets = {}
        for module, name, label, hook in TRACED:
            fn = getattr(sys.modules[f"spectrekit.{module}"], name)
            targets[id(fn)] = (name, label, hook)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("spectrekit."):
                continue
            short = modname.split(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] == attr:
                    _, label, hook = targets[id(value)]
                    label, hook = RELABEL.get((short, attr), (label, hook))
                    setattr(module, attr, self.wrap(value, label, hook))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.spans[0][1] = time.perf_counter()
    try:
        code = spectrekit.cli.run(argv)
    finally:
        tracer.spans[0][2] = time.perf_counter()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
