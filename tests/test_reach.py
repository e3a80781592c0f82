"""The package holds only what a command or an acceptance criterion runs:
every public module-level function and class in ``src`` is read by package
code, docstrings and comments aside, or named in ``test_acceptance.py``.
Code that only other tests run lives in ``tests/``, as ``reference.py`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The public names nothing reaches yet, each with the reason it stays.
UNREACHED = {
    "dirichlet.kappa_constant":
        "the superelliptic limit constant; it waits to be compared with census "
        "data and printed by `constants` (ROADMAP.md, items 1 and 3)",
    "artin_schreier.component_count":
        "p_A(m), for psi_p(1) by a second route in odd characteristic "
        "(ROADMAP.md, item 12)",
    "secover.degree_symmetry_criterion":
        "the plain symmetry condition, which README sets against the orbit "
        "criterion at n = 7; it waits for the census over degree partitions "
        "(ROADMAP.md, item 20)",
    "oracle.extension_field":
        "only perfbench/layers.py calls it, from outside the package; it goes "
        "with the benchmark's next change (ROADMAP.md, item 6)",
}


def _read_names(tree) -> set:
    """Every name the tree reads, as a variable or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _unreached() -> set:
    """The public module-level functions and classes of the package, as
    "module.name", whose name no package code outside their own definition
    reads and that ``test_acceptance.py`` does not name."""
    defined, read = {}, _read_names(ast.parse((ROOT / "tests/test_acceptance.py").read_text()))
    for path in sorted((ROOT / "src/ordcensus").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined[f"{path.stem}.{own}"] = own
            read |= _read_names(node) - {own}
    return {key for key, name in defined.items() if name not in read}


def test_every_public_name_in_src_is_reached():
    # an entry of UNREACHED that something now reaches, or that is gone,
    # fails too, so that the list stays the list of exceptions
    assert _unreached() == set(UNREACHED)
