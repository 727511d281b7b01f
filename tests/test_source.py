"""Source checks: ``geometry.box_params`` is the package's one conversion from
boxes to parameter arrays, so no other module converts boxes itself."""

import pathlib
import re

import mvbox3d

SOURCES = sorted(pathlib.Path(mvbox3d.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"geometry.py", "evaluation.py", "harness.py", "cli.py"}


def test_one_box_converter():
    offenders = []
    for path in SOURCES:
        if path.name == "geometry.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if re.search(r"\.to_params\(\)|_params_matrix", line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
