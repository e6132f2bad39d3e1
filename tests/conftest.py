"""Shared fixtures plus a terminal summary for the acceptance criteria."""
import re

import numpy as np
import pytest

from kgmix.graph import TripleStore

_CRITERIA = {}

_DESCRIPTIONS = {
    1: "dataset degree stats and sufficient dimension (FB15k-237)",
    2: "sign decomposition verified on 200 random adjacencies in 2c+1 columns",
    3: "finite-difference certification of every op and full model losses",
    4: "log-probability rank ceiling d+1 for k=1, escape with k=4",
    5: "feasible sign/ranking enumeration matches the closed forms, witnesses certify",
    6: "ranking metrics and filtered NLL match naive references",
    7: "k=4 mixture beats k=1 on a rank-6 toy target, all seeds",
    8: "stretch benchmark run (optional, needs dataset + opt-in)",
    9: "out-of-scope results are documented, not claimed",
}


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "setup" and report.skipped:
        _CRITERIA[n] = "SKIP"
    elif report.when == "call":
        _CRITERIA[n] = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(_CRITERIA):
        terminalreporter.write_line(
            f"criterion {n}: {_CRITERIA[n]} - {_DESCRIPTIONS.get(n, '')}"
        )


@pytest.fixture
def toy_store():
    """Six entities, two relations, hand-countable splits."""
    return TripleStore(
        entity_names=[f"e{i}" for i in range(6)],
        relation_names=["r0", "r1"],
        train=[(0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 1, 3), (3, 0, 4), (4, 1, 5), (5, 0, 0), (1, 1, 3)],
        valid=[(0, 1, 3), (2, 0, 4)],
        test=[(1, 0, 4), (3, 1, 5)],
    )


@pytest.fixture
def write_dataset(tmp_path):
    """Write tab-separated split files; returns the dataset directory."""

    def _write(train, valid=None, test=None, name="data"):
        root = tmp_path / name
        root.mkdir(exist_ok=True)
        (root / "train.txt").write_text("".join(f"{s}\t{r}\t{o}\n" for s, r, o in train))
        if valid is not None:
            (root / "valid.txt").write_text(
                "".join(f"{s}\t{r}\t{o}\n" for s, r, o in valid)
            )
        if test is not None:
            (root / "test.txt").write_text(
                "".join(f"{s}\t{r}\t{o}\n" for s, r, o in test)
            )
        return str(root)

    return _write


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
