"""Artifacts must not depend on the BLAS thread count.

A BLAS reduction (``@``, ``np.dot`` ...) may split a sum across threads, so
its rounding, and with it a GA's choices, can change with the host's core
count. The program uses numpy reductions only, whose order is fixed.
"""
import ast

from conftest import DATA_DIR, SRC, run_python

BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}
ARTIFACTS = ("stations.geojson", "lines.geojson", "history_stage1.csv", "history_stage2.csv")


def blas_reductions(tree: ast.AST) -> list[str]:
    """Every ``@`` and every reference to a BLAS-backed numpy product in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_CALLS:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in BLAS_CALLS:
            found.append(f"line {node.lineno}: import {node.name}")
    return found


def test_scanner_finds_blas_reductions():
    code = "import numpy as np\nfrom numpy import vdot\na = b @ c\na @= b\nnp.dot(a, b)\nnp.linalg.matmul(a, b)\n"
    assert len(blas_reductions(ast.parse(code))) == 5


def test_source_has_no_blas_reduction():
    found = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if (hits := blas_reductions(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_artifacts_identical_at_one_and_two_blas_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        run_python(
            "-m", "metronet.cli", "run",
            "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
            "--densities", str(DATA_DIR / "selangor_densities.csv"),
            "--generators", str(DATA_DIR / "selangor_generators.csv"),
            "--out", str(out),
            "--population-size", "10", "--generations", "3", "--seed", "3",
            env={"OPENBLAS_NUM_THREADS": threads},
        )
        outs.append(out)
    mismatched = [name for name in ARTIFACTS if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()]
    assert mismatched == []
