"""Pinned report bytes: a change to the exact arithmetic, the oracle or the
serialization that moves a single byte of these reports fails here.

Each digest is the sha256 of the file `--report` writes.  Update a digest
only in a change whose stated purpose is to change that report.
"""

import hashlib

import pytest

from uqsl import bulk
from uqsl.bulk import BulkEngine, BulkError
from uqsl.cli import main

AFFINE_E0W1 = ["check-affine", "--energy-cut", "0", "--mode-window", "1",
               "--psi-nmax", "1"]

PINNED = [
    (AFFINE_E0W1, 0,
     "a00375ff041213901c947c929bcedd0360e04c59745d4471491cb3e48804a31e"),
    (AFFINE_E0W1 + ["--k", "2", "--override", "f13=1"], 1,
     "518826927bd65526c9aebe5a5a1af37cc67a3c21f321e62e80330aa39b2ba1f4"),
    # the kernel families at a formal level above the vacuum energy
    (["check-affine", "--energy-cut", "1", "--mode-window", "1", "--psi-nmax", "2"], 0,
     "5092ee5d8e665d66bd7586d584645b5ddbeda86f56664c3a52c013b028a4f9b6"),
    # eq9 and eq10 at window 2, whose relations send stored-apart pairs to
    # the numeric oracle
    (["check-affine", "--energy-cut", "0", "--mode-window", "2", "--psi-nmax", "4"], 0,
     "a70ae2f4f686ecccc3b18e98363e50db29fa3ea444db52fb1dff905c41db2c58"),
    # residuals spread over many groups of the packed kernel's stage B
    (["check-affine", "--energy-cut", "1", "--mode-window", "1", "--psi-nmax", "2",
      "--k", "2", "--override", "f13=1"], 1,
     "7c63652413745d2e35928d85d89428571f09940ee71c54b878d9a0ed7e32f95a"),
    # two-letter states: a failing eq11 or eq13 instance may first leak on a
    # state that sorts before its leaking sub-occupation
    (["check-affine", "--energy-cut", "2", "--mode-window", "1", "--psi-nmax", "2",
      "--k", "2", "--override", "f13=1"], 1,
     "4d5808bde05d7f0da3555966f409cdff3cce436d98d779eb7160086a61b22b97"),
    (["check-finite", "--M", "2", "--N", "1", "--max-degree", "2"], 0,
     "3679a55edf0051c1ccb223980877fffcb3d4b1213d3fd3b567e54089e5ae4839"),
    (["check-finite", "--M", "3", "--N", "1", "--max-degree", "2",
      "--sabotage", "f2"], 1,
     "8bb7b2181a1442309396844f67a6d491e07139d1b64f796f7a5658386dac404d"),
    # the odd-odd node and eqs. (30)-(31) at rank 3, and the h and f1 forms
    (["check-finite", "--M", "2", "--N", "2", "--variant", "ii", "--max-degree", "2"], 0,
     "8c72952150c977b6897dabbbcc3d9fc084ef31c5c04bbd9548f86e9d6ee226cb"),
    (["check-finite", "--M", "2", "--N", "2", "--max-degree", "2", "--sabotage", "h"], 1,
     "fe44dd4ebcaaa4db2d56f588be03d23d7b427c72cd4d7ad43002e3c4aa825798"),
    (["check-finite", "--M", "1", "--N", "3", "--max-degree", "2", "--sabotage", "f1"], 1,
     "344757b8afb62e2a02f92aa588a76a64ee81a30cdf02e230048fc50b11fd1df9"),
    (["check-finite", "--M", "3", "--N", "2", "--max-degree", "1",
      "--sabotage", "e_iip"], 1,
     "4f92e5d1e97cf1035496e140548653c38c33d6f9ee3d138e5b74f356efbf2e5a"),
    # f1 acts as the clean f on the degree-0 basis, yet the Serre relations
    # carry f_1 f_1 (1) up to degree 2, where it bites
    (["check-finite", "--M", "3", "--N", "0", "--max-degree", "0", "--variant", "i",
      "--sabotage", "f1"], 1,
     "91307156f64a11d617441ee1829596a12ab7e8437b885f68f950b2095dec10c7"),
]


def _digest(tmp_path, argv, code):
    path = tmp_path / "report.json"
    assert main(argv + ["--report", str(path)]) == code
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", PINNED,
                         ids=[" ".join(argv) for argv, _, _ in PINNED])
def test_report_digest(tmp_path, argv, code, digest):
    assert _digest(tmp_path, argv, code) == digest


# the failing affine reports, whose witnesses come from the exact path
OVERRIDES = [case for case in PINNED if "--override" in case[0]]


@pytest.mark.parametrize("argv, code, digest", OVERRIDES,
                         ids=[" ".join(argv) for argv, _, _ in OVERRIDES])
def test_witnesses_independent_of_path(tmp_path, monkeypatch, argv, code, digest):
    """With the packed kernel declining every call, so that the exact path
    computes every residual, zero or not, no byte moves."""
    def refuse(self, jobs, state):
        raise BulkError("row value overflow")

    monkeypatch.setattr(BulkEngine, "combo_residual", refuse)
    assert _digest(tmp_path, argv, code) == digest


# the kernel families at E_cut=1: formal k, and k=2 with f13=1
GROUP_GUARD = [case for case in PINNED if case[0][:3] == ["check-affine", "--energy-cut", "1"]]


@pytest.mark.parametrize("argv, code, digest", GROUP_GUARD,
                         ids=[" ".join(argv) for argv, _, _ in GROUP_GUARD])
def test_group_guard_fallback(tmp_path, monkeypatch, argv, code, digest):
    """A batch whose group registry overflows falls back as a whole, every
    instance on the exact path with its own jobs, and moves no byte."""
    tripped = []
    real = BulkEngine.combo_residual

    def counted(self, jobs, state):
        try:
            return real(self, jobs, state)
        except BulkError as exc:
            tripped.append(str(exc))
            raise

    monkeypatch.setattr(bulk, "_GID_MAX", 0)
    monkeypatch.setattr(BulkEngine, "combo_residual", counted)
    assert _digest(tmp_path, argv, code) == digest
    assert tripped and set(tripped) == {"group registry full"}
