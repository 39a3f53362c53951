#!/usr/bin/env python3
"""Prometheus text-format (0.0.4) checker for the iwg exposition pages.

Validates an exposition file (the IWG_METRICS_PROM at-exit report or a live
GET /metrics scrape) beyond mere line syntax:

  * every sample line matches the exposition grammar (arbitrary label sets,
    e.g. the per-tenant serve_tenant_* families' {tenant="..."});
  * every `# TYPE` family is preceded by a `# HELP` line for the same
    family, and at least one HELP line exists;
  * every `# TYPE` is counter, gauge or histogram (the registry exports
    no other kind, so a summary family is a regression);
  * the iwg_build_info gauge is present, equals 1, and carries the isa and
    trace labels;
  * iwg_process_uptime_seconds is present and non-negative;
  * every histogram's +Inf bucket equals its _count, keyed per label set;
  * with --require-serve, at least one serve_* family is present.

Usage: check_prometheus.py <file> [--require-serve]
"""
import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL = rf'{NAME}="(?:\\.|[^"\\])*"'
LINE_RE = re.compile(rf"^({NAME})(\{{{LABEL}(?:,{LABEL})*\}})? ([0-9.eE+-]+|NaN)$")
LAB_RE = re.compile(rf'({NAME})="((?:\\.|[^"\\])*)"')


def main():
    path = sys.argv[1]
    require_serve = "--require-serve" in sys.argv[2:]
    counts, infs = {}, {}
    helped, names = set(), set()
    build_info_labels = None
    uptime = None
    ok_lines = 0
    for ln in open(path):
        ln = ln.rstrip("\n")
        if not ln:
            continue
        if ln.startswith("# HELP "):
            helped.add(ln.split()[2])
            continue
        if ln.startswith("# TYPE "):
            _, _, fam, kind = ln.split()
            assert fam in helped, f"# TYPE {fam} has no # HELP line"
            assert kind in ("counter", "gauge", "histogram"), (
                f"# TYPE {fam} {kind}: not counter, gauge or histogram")
            continue
        assert not ln.startswith("#"), f"unknown comment line: {ln!r}"
        m = LINE_RE.match(ln)
        assert m, f"malformed exposition line: {ln!r}"
        ok_lines += 1
        names.add(m.group(1))
        labels = dict(LAB_RE.findall(m.group(2) or ""))
        if m.group(1) == "iwg_build_info":
            assert float(m.group(3)) == 1.0, "iwg_build_info must be 1"
            build_info_labels = labels
        if m.group(1) == "iwg_process_uptime_seconds":
            uptime = float(m.group(3))
        le = labels.pop("le", None)
        key = tuple(sorted(labels.items()))
        if le is None and m.group(1).endswith("_count"):
            counts[(m.group(1)[:-6], key)] = float(m.group(3))
        if le == "+Inf" and m.group(1).endswith("_bucket"):
            infs[(m.group(1)[:-7], key)] = float(m.group(3))
    assert helped, "no # HELP lines in exposition"
    assert build_info_labels is not None, "iwg_build_info missing"
    for required in ("isa", "trace"):
        assert required in build_info_labels, f"iwg_build_info lacks {required}="
    assert uptime is not None and uptime >= 0.0, "iwg_process_uptime_seconds missing"
    assert infs, "no histograms in exposition"
    for k, v in infs.items():
        assert counts.get(k) == v, f"{k}: +Inf bucket != _count"
    if require_serve:
        assert any(n.startswith("serve_") for n in names), "no serve metrics"
    print(
        f"{ok_lines} exposition lines OK, {len(infs)} histograms consistent, "
        f"build_info {build_info_labels}, uptime {uptime:.3f}s"
    )


if __name__ == "__main__":
    main()
