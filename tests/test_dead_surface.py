"""Every function, class and method in `src/torusgas` has a caller outside tests.

The scan is by name over the syntax trees of `src/torusgas` and
`perfbench`: a definition counts as used when its name is read somewhere
outside its own body.  Reads inside definitions that are themselves unused
do not count, so a helper that only dead code calls is flagged with it.  An
attribute of a module bound by a plain `import` of another package
(`np.empty`, `json.dump`) is that module's, so it is not a read of a
same-named src definition.  In `src` a read is a name or an attribute.
`perfbench` reaches the package only through its modules, so there a read
is an attribute, or the attribute name its tracer patches by string (the
second argument of a `_patch_function`/`_patch_method` call); its own local
names and other strings (a worker mode "full") read nothing of `src`.
Dunder methods are called implicitly and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Kept although nothing in src or perfbench calls them: tests use them to
# check production outputs.
TEST_SURFACE = (
    ("pde.DiffusionTable.from_callable",
     "builds the analytic coefficient tables of the criterion-8 PDE checks"),
    ("resolvent.DiffusionResult.symmetry_gap",
     "criterion 1 reads the asymmetry of the computed diffusion matrices"),
    ("kernels.ssep", "symmetric reference kernel of the simulation and dual tests"),
    ("kernels.tasep", "totally asymmetric reference kernel of the same tests"),
    ("kernels.KernelAnalysis.sym_of", "reads the even part of a validated kernel"),
    ("kernels.KernelAnalysis.asym_of", "reads the odd part of a validated kernel"),
    ("lattice.TorusGeometry.site_index", "places particles by coordinates in tests"),
    ("lattice.TorusGeometry.site_coords", "inverts site_index in tests"),
)


_PATCHERS = {"_patch_function", "_patch_method"}


def _scan(path: Path, bench: bool, defs: list, reads: list):
    """Append (name, qualified name, key) of definitions and (name, enclosing keys) of reads.

    `bench` selects the perfbench rule: attributes and patched names only.
    """
    tree = ast.parse(path.read_text())
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "torusgas"}

    def visit(node, enclosing, qual):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = qual + (node.name,)
            key = (path, node.lineno, node.col_offset)
            defs.append((node.name, f"{path.stem}." + ".".join(qual), key))
            enclosing = enclosing | {key}
        elif isinstance(node, ast.Name):
            if not bench:
                reads.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                reads.append((node.attr, enclosing))
        elif (bench and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _PATCHERS and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            reads.append((node.args[1].value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, qual)

    visit(tree, frozenset(), ())


def unused_definitions(exempt=()) -> list:
    """Qualified names of src definitions with no read outside dead code.

    `exempt` names count as used, so their bodies keep their callees alive.
    """
    defs, reads, bench_defs = [], [], []
    for path in sorted((ROOT / "src" / "torusgas").glob("*.py")):
        _scan(path, False, defs, reads)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        _scan(path, True, bench_defs, reads)
    readers = {}
    for name, where in reads:
        readers.setdefault(name, []).append(where)
    candidates = [(name, qual, key) for name, qual, key in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and qual not in exempt]
    dead = set()
    while True:
        newly = {key for name, qual, key in candidates if key not in dead
                 and not any(key not in where and not where & dead
                             for where in readers.get(name, ()))}
        if not newly:
            return [qual for _, qual, key in candidates if key in dead]
        dead |= newly


def test_src_has_no_test_only_surface():
    exempt = {qual for qual, _ in TEST_SURFACE}
    unused = unused_definitions(exempt)
    assert not unused, "no caller in src or perfbench: " + ", ".join(unused)
    # every exemption is still defined and still needs to be one
    assert set(unused_definitions()) >= exempt
