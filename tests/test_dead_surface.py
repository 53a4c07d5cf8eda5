"""Every function, class and method in `src/torusgas` has a caller outside tests.

The scan is by name over the syntax trees of `src/torusgas` and
`perfbench`: a definition counts as used when its name is read somewhere
outside its own body by a read that can reach it.  A bare name reaches the
module-level definitions and those nested in its enclosing functions, not
methods; `self.x` and `cls.x` inside class C, and `C.x` for a class C,
reach only C's own members; any other attribute reaches every definition
of its name.  So a test-only method cannot hide behind a production
function or method of the same name.  Reads inside definitions that are
themselves unused do not count, so a helper that only dead code calls is
flagged with it.  An attribute of a module bound by a plain `import` of
another package (`np.empty`, `json.dump`) is that module's, so it is not a
read of a same-named src definition.  In `src` a read is a name or an attribute.
`perfbench` reaches the package only through its modules, so there a read
is an attribute, or the attribute name its tracer patches by string (the
second argument of a `_patch_function`/`_patch_method` call); its own local
names and other strings (a worker mode "full") read nothing of `src`.
Dunder methods are called implicitly and are skipped.

A second scan leaves `perfbench` out: the definitions it then flags are
read by the benchmark alone, and `BENCH_SURFACE` must name exactly those.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Kept although nothing in src or perfbench calls them: tests use them to
# check production outputs.
TEST_SURFACE = (
    ("pde.DiffusionTable.from_callable",
     "builds the analytic and constant coefficient tables of the PDE checks"),
    ("resolvent.DiffusionResult.symmetry_gap",
     "criterion 1 reads the asymmetry of the computed diffusion matrices"),
    ("kernels.ssep", "symmetric reference kernel of the simulation and dual tests"),
    ("kernels.tasep", "totally asymmetric reference kernel of the same tests"),
    ("kernels.KernelAnalysis.sym_of", "reads the even part of a validated kernel"),
    ("kernels.KernelAnalysis.asym_of", "reads the odd part of a validated kernel"),
    ("lattice.TorusGeometry.site_index", "places particles by coordinates in tests"),
    ("lattice.TorusGeometry.site_coords", "inverts site_index in tests"),
)

# Read only by `perfbench`: each goes, or gains a reader in src, when the
# benchmark reads what the CLI writes instead of patching the package.
BENCH_SURFACE = (
    ("lattice.Configuration.state_code",
     "the tracer patches it; no workload calls it"),
    ("resolvent.DiffusionResult.load_json", "the worker's diffusion.json round-trip check"),
    ("resolvent.DiffusionResult.min_eig_above_mobility_floor",
     "the worker's criterion-2 check"),
)


_PATCHERS = {"_patch_function", "_patch_method"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scan(path: Path, bench: bool, defs: list, reads: list, classes: dict) -> list:
    """Append the definitions and name reads of one file; return its attribute reads.

    A definition is (name, qualified name, key, owner), the owner being the
    key of the enclosing class or function, None at module level.  A read is
    (name, enclosing keys, owners it can reach), None for every owner.  An
    attribute read is (name, enclosing keys, name of its base or None, key
    of the innermost enclosing class or None); it is resolved once
    `classes`, class name -> keys, holds every file's classes.  `bench`
    selects the perfbench rule: attributes and patched names only.
    """
    tree = ast.parse(path.read_text())
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "torusgas"}
    attr_reads = []

    def visit(node, enclosing, qual, owner, scope, in_class):
        # scope: the owners a bare name reaches (module level and the
        # enclosing functions)
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            qual = qual + (node.name,)
            key = (path, node.lineno, node.col_offset)
            defs.append((node.name, f"{path.stem}." + ".".join(qual), key, owner))
            enclosing = enclosing | {key}
            owner = key
            if isinstance(node, _FUNCTIONS):
                scope = scope | {key}
            else:
                in_class = key
                classes.setdefault(node.name, set()).add(key)
        elif isinstance(node, ast.Name):
            if not bench:
                reads.append((node.id, enclosing, scope))
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base not in foreign:
                attr_reads.append((node.attr, enclosing, base, in_class))
        elif (bench and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _PATCHERS and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            reads.append((node.args[1].value, enclosing, None))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, qual, owner, scope, in_class)

    visit(tree, frozenset(), (), None, frozenset({None}), None)
    return attr_reads


def unused_definitions(exempt=(), bench=True) -> list:
    """Qualified names of src definitions with no read outside dead code.

    `exempt` names count as used, so their bodies keep their callees alive.
    With `bench` false the reads in `perfbench` do not count.
    """
    defs, reads, bench_defs, classes, attr_reads = [], [], [], {}, []
    for path in sorted((ROOT / "src" / "torusgas").glob("*.py")):
        attr_reads += _scan(path, False, defs, reads, classes)
    for path in sorted((ROOT / "perfbench").glob("*.py")) if bench else ():
        attr_reads += _scan(path, True, bench_defs, reads, classes)
    for name, where, base, in_class in attr_reads:
        if base in ("self", "cls") and in_class is not None:
            reads.append((name, where, {in_class}))
        else:
            reads.append((name, where, classes.get(base)))  # C.x, or any owner
    readers = {}
    for name, where, owners in reads:
        readers.setdefault(name, []).append((where, owners))
    candidates = [d for d in defs
                  if not (d[0].startswith("__") and d[0].endswith("__"))
                  and d[1] not in exempt]
    dead = set()
    while True:
        newly = {key for name, qual, key, owner in candidates
                 if key not in dead
                 and not any(key not in where and not where & dead
                             and (owners is None or owner in owners)
                             for where, owners in readers.get(name, ()))}
        if not newly:
            return [d[1] for d in candidates if d[2] in dead]
        dead |= newly


def test_src_has_no_test_only_surface():
    exempt = {qual for qual, _ in TEST_SURFACE}
    unused = unused_definitions(exempt)
    assert not unused, "no caller in src or perfbench: " + ", ".join(unused)
    # every exemption is still defined and still needs to be one
    assert set(unused_definitions()) >= exempt


def test_bench_only_surface_is_listed():
    # without perfbench's reads, exactly the listed names lose their readers
    exempt = {qual for qual, _ in TEST_SURFACE}
    bench = {qual for qual, _ in BENCH_SURFACE}
    unused = unused_definitions(exempt | bench, bench=False)
    assert not unused, "read only by perfbench, not in BENCH_SURFACE: " + ", ".join(unused)
    assert set(unused_definitions(exempt, bench=False)) >= bench
