"""Layering of the rotinv package, read from its source with ast.

The dense oracle is the independent second route, so it imports none of
the parameter-space code and only the vector types of states; states holds
the coordinate rules, the exact weights, the per-state plan and the
verdict names, each stated once, and geometry scales the 4 x N table in
one builder; maps holds the verdicts and sits on states and geometry
alone; checks reads the alpha images through maps.  Spins are Fractions,
parsed to doubled ints by wigner.twice alone; wigner._symbol assembles
every symbol, and the oracle enters wigner's kernels on doubled ints.
wigner keeps its Racah internals: L's entries come from wigner._l_rows, the
one thing states reads there beside twice, and the sign (-1)**(x/2) is
written in wigner._phase alone.  geometry reads L in theta1_polytope and
_slice_margins alone.  Each decision margin has one home: the theta_1 and
Breuer margins of a state are formed in maps alone, and the slice reader's
callers compare its margins without reducing them.  Spectra are taken in
dense alone, whose one table per conserved charge gives the blocks they
are read in, and the oracle's charge guard reads rho alone off its blocks.
The package's import graph has no cycle, every import sits at module
level, and none is unused.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rotinv"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports ("__init__" for the package itself)."""
    out = set()
    for node in _imports(TREES[name]):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        elif node.level == 1 and node.module:
            modules = [f"rotinv.{node.module}"]
        else:  # from . import a, b
            modules = [f"rotinv.{alias.name}" for alias in node.names]
        for module in modules:
            parts = module.split(".")
            if parts[0] == "rotinv":
                out.add(parts[1] if len(parts) > 1 and parts[1] in TREES else "__init__")
    out.discard(name)
    return out


def test_dense_imports_no_parameter_space_module():
    assert package_imports("dense").isdisjoint({"maps", "geometry", "checks", "cli"}), \
        package_imports("dense")


def test_maps_imports_only_states_and_geometry():
    assert package_imports("maps") <= {"states", "geometry"}, package_imports("maps")


def test_dense_imports_only_the_vector_types_of_states():
    """states holds parameter-space rules too; the oracle takes only its vector types."""
    names = {alias.name for node in _imports(TREES["dense"])
             if isinstance(node, ast.ImportFrom) and node.module in ("states", "rotinv.states")
             for alias in node.names}
    assert names <= {"AlphaVector", "BetaVector", "SpinPair"}, names
    assert not any(isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "states" for node in ast.walk(TREES["dense"]))


def definitions(name: str) -> set[str]:
    """The top-level function and class names that module ``name`` defines."""
    return {node.name for node in TREES[name].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("rule", ["_breuer_rule", "_breuer_coords", "_plan", "_Plan", "Verdict"])
def test_shared_rule_is_defined_in_states_alone(rule):
    assert [name for name in TREES if rule in definitions(name)] == ["states"]


@pytest.mark.parametrize("verdict", ["NotAState", "NptEntangled", "PptBoundEntangledDetected",
                                     "KnownSeparable", "PptUndetermined"])
def test_verdict_name_is_one_string_constant(verdict):
    found = [name for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == verdict]
    assert found == ["states"], found


def breuer_numbers(tree) -> list[tuple[int, str]]:
    """Where ``tree`` writes the Breuer factor (a literal 2.0, or 2 negated) or trace (n1 - 2).

    ``n1 - 2`` under a floor division counts even coordinates, not the trace.
    """
    nodes = list(ast.walk(tree))
    halved = {id(node.left) for node in nodes
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)}
    negated = {id(node.operand) for node in nodes
               if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)}
    found = []
    for node in nodes:
        if isinstance(node, ast.Constant) and node.value in (2, -2) and (
                type(node.value) is float or id(node) in negated):
            found.append((node.lineno, "factor"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
              and id(node) not in halved
              and isinstance(node.right, ast.Constant) and node.right.value == 2
              and "n1" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))):
            found.append((node.lineno, "trace"))
    return found


def test_breuer_trace_and_factor_are_written_once():
    """The parameter-space modules take n1 - 2 and -2 from states._breuer_rule alone."""
    rule = next(node for node in TREES["states"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_breuer_rule")
    assert sorted(kind for _, kind in breuer_numbers(rule)) == ["factor", "trace"]
    inside = range(rule.lineno, rule.end_lineno + 1)
    found = {name: [(line, kind) for line, kind in breuer_numbers(TREES[name])
                    if name != "states" or line not in inside]
             for name in ("states", "maps", "geometry", "checks", "cli")}
    assert not any(found.values()), found


def test_checks_takes_the_alpha_images_through_maps():
    """checks composes no theta_1 or Breuer image with beta_to_alpha: it reads maps."""
    reads = {(node.value.id, node.attr) for node in ast.walk(TREES["checks"])
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    banned = {("states", "beta_to_alpha"), ("maps", "partial_time_reversal"),
              ("maps", "breuer_map")}
    assert not reads & banned, reads & banned
    imported = {alias.name for node in _imports(TREES["checks"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {name for _, name in banned}, imported


def calls(name: str, function: str) -> list[tuple[str, ast.Call]]:
    """(enclosing top-level function, call) for each call of ``function`` in module ``name``."""
    out = []
    for top in TREES[name].body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and function in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                out.append((getattr(top, "name", None), node))
    return out


def test_4xn_table_is_scaled_in_one_place():
    """The r_K-unit table is read by named_points_4xn alone; every other reader takes its points."""
    found = [(name, where) for name in TREES for where, _ in calls(name, "_scaled_coords")]
    assert found == [("geometry", "named_points_4xn")], found


def test_weight_radical_is_built_in_states_alone():
    """No ExactRadical.sqrt outside states._exact_weights reads the dimension n1 n2."""
    found = [(name, where, call.lineno) for name in TREES
             for where, call in calls(name, "sqrt")
             if getattr(call.func, "value", None) is not None
             and getattr(call.func.value, "id", None) == "ExactRadical"
             and any(isinstance(node, ast.Attribute) and node.attr == "dim"
                     for node in ast.walk(call))
             and (name, where) != ("states", "_exact_weights")]
    assert not found, found


def test_twice_is_the_one_spin_parser():
    """One ``def twice`` in the package, at the top level of wigner."""
    found = [(name, node.lineno) for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "twice"]
    assert [name for name, _ in found] == ["wigner"] and "twice" in definitions("wigner"), found


def test_halfint_is_imported_nowhere():
    found = [(name, node.lineno) for name in TREES for node in _imports(TREES[name])
             if "halfint" in (getattr(node, "module", None) or "")
             or any("halfint" in alias.name for alias in node.names)]
    assert not found, found


def test_no_class_stores_a_doubled_spin():
    """A spin is held as a Fraction: no class field, attribute store or setattr keeps 2j."""
    found = []
    for name, tree in TREES.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            fields = [node.target.id for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            fields += [node.attr for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
            fields += [node.value for node in ast.walk(cls)
                       if isinstance(node, ast.Constant) and node.value == "twice"]
            found += [(name, cls.name, field) for field in fields if "twice" in field]
    assert not found, found


def test_radicand_is_defined_nowhere():
    """wigner._symbol is the one assembler of a symbol; the radicand helper is gone."""
    found = [(name, node.lineno) for name, tree in TREES.items() for node in ast.walk(tree)
             if getattr(node, "name", None) == "_radicand"
             or getattr(node, "id", None) == "_radicand"]
    assert not found, found


def test_build_l_matrix_assembles_no_radical_itself():
    """Each L entry is formed by wigner._symbol in wigner._l_rows, which calls no
    ExactRadical(...); states assembles no symbol."""
    assert not [call.lineno for where, call in calls("wigner", "ExactRadical")
                if where == "_l_rows"]
    assert "_l_rows" in {where for where, _ in calls("wigner", "_symbol")}
    assert not calls("states", "_symbol")
    assert not [call.lineno for where, call in calls("states", "ExactRadical")
                if where == "build_l_matrix"]


def test_states_reads_only_twice_and_l_rows_from_wigner():
    names = {alias.name for node in _imports(TREES["states"])
             if isinstance(node, ast.ImportFrom) and node.module in ("wigner", "rotinv.wigner")
             for alias in node.names}
    assert names == {"twice", "_l_rows"}, names
    assert "wigner" not in {getattr(node.value, "id", None) for node in ast.walk(TREES["states"])
                            if isinstance(node, ast.Attribute)}


def mentions(name: str, ident: str) -> list:
    """Lines where module ``name`` defines, imports or reads the name ``ident``."""
    return [getattr(node, "lineno", None) for node in ast.walk(TREES[name])
            if ident in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None))]


@pytest.mark.parametrize("internal", ["_tri_sq", "_six_j_sum", "_symbol"])
def test_racah_internal_is_read_in_wigner_alone(internal):
    found = {name: mentions(name, internal) for name in TREES if name != "wigner"}
    assert not any(found.values()), found


def half_parity_tests(tree) -> list[int]:
    """Lines of ``(x // 2) % 2``, the parity of half a doubled exponent: the sign rule."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 2]


def test_sign_rule_is_written_in_phase_alone():
    phase = next(node for node in TREES["wigner"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_phase")
    assert len(half_parity_tests(phase)) == 1
    inside = range(phase.lineno, phase.end_lineno + 1)
    found = [(name, line) for name, tree in TREES.items() for line in half_parity_tests(tree)
             if name != "wigner" or line not in inside]
    assert not found, found


def test_time_reversal_is_written_once_in_dense():
    """theta_1's table reads its sources and signs off dense.time_reversal, whose signs
    come from _phase; dense writes no np.where(..., 1.0, -1.0) sign grid beside it."""
    assert "_theta1_table" in {where for where, _ in calls("dense", "time_reversal")}
    assert "time_reversal" in {where for where, _ in calls("dense", "_phase")}
    grids = [call.lineno for _, call in calls("dense", "where")  # a choice of two numbers
             if call.args[1:] and all(isinstance(arg, (ast.Constant, ast.UnaryOp))
                                      for arg in call.args[1:])]
    assert not grids, grids


@pytest.mark.parametrize("helper", ["_racah_six_j", "_segment_ends"])
def test_folded_helper_is_defined_nowhere(helper):
    """The 6-j memo is one function, _six_j, and the segment reads E and G off the 4 x N
    builder, with no cache of its own."""
    found = {name: mentions(name, helper) for name in TREES}
    assert not any(found.values()), found


def test_exact_radical_has_no_square_method():
    """A radical's square is its radicand field."""
    cls = next(node for node in TREES["radical"].body
               if isinstance(node, ast.ClassDef) and node.name == "ExactRadical")
    assert "square" not in {getattr(node, "name", None) for node in cls.body}


def test_dense_enters_wigner_on_doubled_ints():
    """The oracle imports no public, spin-parsing Wigner function."""
    names = {alias.name for node in _imports(TREES["dense"])
             if isinstance(node, ast.ImportFrom) and node.module in ("wigner", "rotinv.wigner")
             for alias in node.names}
    assert not names & {"three_j", "six_j", "clebsch_gordan"}, names
    reads = {node.attr for node in ast.walk(TREES["dense"])
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "wigner"}
    assert not reads & {"three_j", "six_j", "clebsch_gordan"}, reads


def private_geometry_names(name: str) -> list[str]:
    """The private geometry names that module ``name`` imports or reads as geometry._x."""
    tree = TREES[name]
    private = [alias.name for node in _imports(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("geometry", "rotinv.geometry")
               for alias in node.names if alias.name.startswith("_")]
    return private + [node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "geometry" and node.attr.startswith("_")]


def test_maps_imports_no_private_geometry_name():
    """maps reaches geometry through its public names only (the 4xN separable rule)."""
    assert not private_geometry_names("maps"), private_geometry_names("maps")


def test_cli_imports_no_private_geometry_name():
    """cli reaches geometry through its public names only (the sweep columns)."""
    assert not private_geometry_names("cli"), private_geometry_names("cli")


def test_import_graph_has_no_cycle():
    graph = {name: package_imports(name) - {"__init__"} for name in TREES if name != "__init__"}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, " -> ".join([*path, name])
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, [*path, name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_import_inside_a_function(name):
    nested = [f"line {node.lineno}"
              for func in ast.walk(TREES[name])
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in _imports(func)]
    assert not nested, f"{name}: {nested}"


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__"}))
def test_no_unused_import(name):
    """Every name a module imports is used in it; __init__ only re-exports, so it is exempt."""
    tree = TREES[name]
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = sorted(f"{alias} (line {line})" for alias, line in bound.items() if alias not in used)
    assert not unused, f"{name}: unused {unused}"


def test_geometry_reads_the_theta1_slice_off_l_twice():
    """L is read by theta1_polytope (exact) and _slice_margins (floats) alone; Gamma and D~''
    take the polytope's Jmin and Jmax facets, so they read neither L nor the weights."""
    assert sorted(where for where, _ in calls("geometry", "build_l_matrix")) == [
        "_slice_margins", "theta1_polytope"]
    readers = {top.name: {getattr(node, "id", None) or getattr(node, "attr", None)
                          for node in ast.walk(top)}
               for top in TREES["geometry"].body
               if getattr(top, "name", None) in ("gamma_hyperplane", "d_tilde_point")}
    assert len(readers) == 2, sorted(readers)
    found = {name: names & {"build_l_matrix", "_exact_weights", "LMatrix"}
             for name, names in readers.items()}
    assert not any(found.values()), found


def names_in(node) -> set[str]:
    """Every name and attribute that ``node`` reads."""
    return {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}


def test_theta1_matrix_is_multiplied_in_the_theta1_margin_alone():
    """lt_theta1 enters a product only in maps._theta1_margin, the one home of the PPT margin."""
    products = {"matmul", "dot", "multiply", "einsum", "inner", "tensordot"}
    found = [(name, getattr(top, "name", None)) for name in TREES for top in TREES[name].body
             for node in ast.walk(top)
             if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Mult))
                 or isinstance(node, ast.Call) and names_in(node.func) & products)
             and "lt_theta1" in names_in(node)]
    assert found == [("maps", "_theta1_margin")], found


def test_breuer_image_is_formed_for_its_margin_and_breuer_map_alone():
    found = sorted((name, where) for name in TREES for where, _ in calls(name, "_breuer_coords"))
    assert found == [("maps", "_breuer_margin"), ("maps", "breuer_map")], found


def test_slice_margins_are_only_compared():
    """No caller of geometry._slice_margins reduces what it returns: each compares the
    margins with its own tolerance."""
    reducers = {"min", "amin", "nanmin", "minimum", "reduce", "max", "amax"}
    callers = 0
    for name in TREES:
        for top in TREES[name].body:
            if "_slice_margins" not in names_in(top) or top.name == "_slice_margins":
                continue
            callers += 1
            read = {target.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                    and "_slice_margins" in names_in(node.value)
                    for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)}
            reduced = [node.lineno for node in ast.walk(top) if isinstance(node, ast.Call)
                       and names_in(node.func) & reducers
                       and (read | {"_slice_margins"}) & names_in(node)]
            assert not reduced, (name, top.name, reduced)
    assert callers == 3


def test_hull_weights_are_reduced_by_one_rule():
    """DD'EE' membership has one home: geometry._hull_margin alone reduces the hull
    weights, and the float point test, the sweep's mask and the exact test read it."""
    found = [(name, where) for name in TREES for where, _ in calls(name, "_hull_weights_x20")]
    assert found == [("geometry", "_hull_margin")], found
    readers = sorted((name, where) for name in TREES for where, _ in calls(name, "_hull_margin"))
    assert readers == [("geometry", "_separable_mask_4xn"),
                       ("geometry", "exact_hull_membership_4xn"),
                       ("geometry", "minimal_separable_membership_4xn")], readers


def operator_builds(name: str) -> list[tuple[str, str]]:
    """(enclosing top-level function, kind) for each self-product ``x @ x.T`` and each sum
    ``op += np.kron(...)`` that module ``name`` writes."""
    found = []
    for top in TREES[name].body:
        for node in ast.walk(top):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                    and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Attribute)
                    and node.right.attr == "T"
                    and getattr(node.right.value, "id", None) == node.left.id):
                found.append((getattr(top, "name", None), "product"))
            elif isinstance(node, ast.AugAssign) and "kron" in names_in(node.value):
                found.append((getattr(top, "name", None), "kron sum"))
    return found


def test_basis_operators_are_listed_in_one_function():
    """dense._basis alone builds the P_J (``block @ block.T`` over the columns of the
    coupled basis) and the Q_K (the np.kron sum of the T_{K,q}), once per (system, basis),
    as one stack with their degeneracies; projector and invariant_q, the coordinate reader
    and the support sums read that stack, and extract_beta and twirl_alpha read their
    traces through the one reader.  No module keeps a second copy of the operators."""
    assert sorted(operator_builds("dense")) == [("_basis", "kron sum"), ("_basis", "product")]
    found = {name: operator_builds(name) for name in TREES if name != "dense"}
    # checks' L orthogonality is the one self-product elsewhere, and no module sums a kron
    assert found.pop("checks") == [("l_orthogonality", "product")]
    assert not any(found.values()), found
    readers = sorted((name, where) for name in TREES for table in ("coupled_basis", "_tensor_matrix")
                     for where, _ in calls(name, table))
    assert readers == [("dense", "_basis"), ("dense", "_basis"), ("dense", "_basis"),
                       ("dense", "pi_project"), ("dense", "pi_project")], readers
    assert not [(name, where) for name in TREES for operator in ("projector", "invariant_q")
                for where, _ in calls(name, operator)]
    assert sorted(where for where, _ in calls("dense", "_basis")) == [
        "_coordinates", "_support_sums", "invariant_q", "projector"]
    assert sorted(where for where, _ in calls("dense", "_coordinates")) == [
        "extract_beta", "twirl_alpha"]
    assert not any(mentions(name, "_on_support") for name in TREES)
    decorators = {node.name: [names_in(d) for d in node.decorator_list]
                  for node in TREES["dense"].body if isinstance(node, ast.FunctionDef)}
    assert [names & {"lru_cache"} for names in decorators["_basis"]] == [{"lru_cache"}]
    assert decorators["projector"] == decorators["invariant_q"] == []


def linalg_reads(name: str) -> list[tuple[str, str]]:
    """(enclosing top-level function, attribute) for each np.linalg.x that module ``name`` reads."""
    return [(getattr(top, "name", None), node.attr)
            for top in TREES[name].body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg" and getattr(node.value.value, "id", None) == "np"]


def test_linear_algebra_runs_in_dense():
    """Every spectrum is taken in dense; the one np.linalg read elsewhere is
    polytope_bounding_box's solve of its facet rows."""
    found = {name: linalg_reads(name) for name in TREES if name != "dense"}
    assert sorted(found.pop("geometry")) == [("polytope_bounding_box", "LinAlgError"),
                                             ("polytope_bounding_box", "solve")]
    assert not any(found.values()), found
    assert {attr for _, attr in linalg_reads("dense")} == {"eigvalsh", "eigh", "norm"}


def test_sector_tables_have_one_home_in_dense():
    """The blocks of M = m1 + m2, the one conserved charge the library reads, are built
    by dense._sectors, the oracle's one index table, and read by dense._support_sums and
    dense._block_spectra alone, once each; no module names a table of charges, and checks
    builds no index table of its own."""
    assert "_sectors" in definitions("dense")
    assert [where for where, _ in calls("dense", "_sectors")] == ["_support_sums", "_block_spectra"]
    found = {name: mentions(name, "_CHARGES") for name in TREES}
    found.update({name: mentions(name, "_sectors") for name in TREES if name != "dense"})
    assert not any(found.values()), found
    builders = {"arange", "divmod", "unique", "flatnonzero", "nonzero", "argsort", "indices",
                "ix_", "where", "tril_indices", "triu_indices", "diag_indices"}
    built = [(node.func.attr, node.lineno) for node in ast.walk(TREES["checks"])
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in builders]
    assert not built, built


def test_block_spectra_reads_only_rho_off_the_blocks():
    """The oracle's charge guard is one read of rho: dense._block_spectra reads the M
    table as one (blocks, support, off) triple, hands its two gathers block tables alone, and
    reads the off table once, through np.take of rho's flat entries."""
    top = next(node for node in TREES["dense"].body
               if getattr(node, "name", None) == "_block_spectra")
    (unpack,) = [node for node in ast.walk(top)
                 if isinstance(node, ast.Assign) and "_sectors" in names_in(node.value)]
    assert isinstance(unpack.value, ast.Call) and unpack.value.func.id == "_sectors"
    _, _, off = (name.id for name in unpack.targets[0].elts)
    gathers = [call for gather in ("_time_reversed_1", "_transposed_1", "_phi1")
               for where, call in calls("dense", gather) if where == "_block_spectra"]
    assert len(gathers) == 2 and not any(off in names_in(call) for call in gathers)
    reads = [node for node in ast.walk(top) if isinstance(node, ast.Name)
             and node.id == off and isinstance(node.ctx, ast.Load)]
    assert len(reads) == 1, [node.lineno for node in reads]
    (take,) = [node for node in ast.walk(top)
               if isinstance(node, ast.Call) and reads[0] in node.args]
    assert take.func.attr == "take" and take.args[0].id == "flat"


@pytest.mark.parametrize("table, gather, public", [
    ("_transposed_source", "_transposed_1", "partial_transpose_1"),
    ("_theta1_table", "_time_reversed_1", "theta1"),
    ("_phi1_table", "_phi1", "breuer_phi1")])
def test_each_map_has_one_implementation_in_dense(table, gather, public):
    """Each of rho^T1, theta_1 and Phi_1 is one gather through one cached table: the
    table is read by its gather alone, the public map is that gather over every entry,
    and the oracle check reads the same gather through dense._block_spectra (the
    transpose gather through theta_1's)."""
    assert {table, gather, public} <= definitions("dense")
    assert [where for where, _ in calls("dense", table)] == [gather]
    readers = {where for where, _ in calls("dense", gather)}
    assert public in readers
    assert ("_time_reversed_1" if gather == "_transposed_1" else "_block_spectra") in readers
    assert readers <= {public, "_block_spectra", "_time_reversed_1", "breuer_phi1"}
    found = {name: mentions(name, table) for name in TREES if name != "dense"}
    assert not any(found.values()), found
