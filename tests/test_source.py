import ast
import pathlib

import tropwave

SOURCES = sorted(pathlib.Path(tropwave.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_refine_certificates_do_not_sample():
    # refine proves its certificates at vertices; it draws no random points
    path = next(p for p in SOURCES if p.name == "refine.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert not names & {"random", "sample_interior_points"}


def test_kernel_takes_polygons_only():
    # complex, series, curve and wave name no oracle domain, and the one
    # polygon check among them is the TropicalSeries constructor's guard
    names, checks = set(), []
    for path in SOURCES:
        if path.name not in ("complex.py", "series.py", "curve.py",
                             "wave.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "isinstance"
                  and "QPolygon" in ast.unparse(node.args[1])):
                scope, up = [], node
                while up in parent:
                    up = parent[up]
                    if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
                        scope.insert(0, up.name)
                checks.append(f"{path.name}:{'.'.join(scope)}")
    assert not names & {"SupportOracle", "ConvexDomain", "truncated"}
    assert checks == ["series.py:TropicalSeries.__init__"]


def test_refine_proves_equality_outside_the_balls_without_a_spot_check():
    # make_nice proves f = g outside the corner balls from its margin rows;
    # the vertex spot check that rebuilt the result's complex is gone
    path = next(p for p in SOURCES if p.name == "refine.py")
    defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "make_nice" in defined
    assert "_spot_check_equal_outside_balls" not in defined


def source_tree(name):
    path = next(p for p in SOURCES if p.name == name)
    return ast.parse(path.read_text(), str(path))


def defined_functions(name):
    return {node.name for node in ast.walk(source_tree(name))
            if isinstance(node, ast.FunctionDef)}


def test_segment_cells_are_read_off_their_clips():
    # a segment cell is its clip in `exactlp.rotate_ccw` order, as a polygon
    # cell is: no list of tight constraints orders its ends
    defined = defined_functions("complex.py") | defined_functions("series.py")
    assert "_segment_ends" not in defined
    assert not defined & {"_cell_constraints", "_first_crossing_pair"}


def test_exactlp_has_no_fraction_line_meet():
    # the one-wave family reads its vanishing parameters off the local
    # model, so no `Fraction` meet of boundary lines is left
    assert "boundary_intersection" not in defined_functions("exactlp.py")


def test_certify_family_takes_no_sample_count():
    # the one-wave family is checked at fixed members, a module constant
    path = next(p for p in SOURCES if p.name == "refine.py")
    fn = next(node for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and node.name == "_certify_family")
    names = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    assert names == ["f", "v", "c", "step"]


def test_exactlp_has_no_general_cone_or_segment_scan():
    # polygon boundedness and corner cones are cross signs in `geometry`,
    # and every hull's lattice points come from one edge test
    defined = defined_functions("exactlp.py")
    assert "hull_lattice_points" in defined
    assert not defined & {"cone_contains", "_segment_constraints", "vneg"}


def test_polygon_sorts_its_normals_once():
    # `QPolygon` sorts the distinct normals before the enumeration, and its
    # edges come out in that order with no second sort
    path = next(p for p in SOURCES if p.name == "geometry.py")
    cls = next(node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and node.name == "QPolygon")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    calls = [node for node in ast.walk(init) if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("angle_order")]
    assert [ast.unparse(c.args[0]) for c in calls] == ["normals"]


def module_function(module, name, cls=None):
    """The definition of ``name`` in the file ``module``, a method of
    ``cls`` if given."""
    scope = source_tree(module)
    if cls is not None:
        scope = next(node for node in scope.body
                     if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in ast.walk(scope)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_a_raise_clips_nothing_from_the_domain():
    # every clip of a raised build starts from v's old cell in f's complex,
    # which is empty for a v outside f's small form
    fn = module_function("complex.py", "_raised_cells")
    starts = [ast.unparse(node.args[0]) for node in ast.walk(fn)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "clip"]
    assert starts and set(starts) == {"ring"}
    assert any(ast.unparse(node) == "ring = base.hcells.get(v, [])"
               for node in ast.walk(fn) if isinstance(node, ast.Assign))


def test_one_table_scan_serves_every_monomial():
    # `Complex.touching` is the one scan of the vertex table for a
    # monomial's gap, and renormalization is its one reader in the package,
    # which computes no gap of its own from a table row; a monomial outside
    # a series' support is priced from the domain, so `Complex` has no
    # `coefficient`
    readers = {f"{path.name}:{fn.name}" for path in SOURCES
               for fn in ast.walk(source_tree(path.name))
               if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and ast.unparse(node.func).endswith(".touching")
                       for node in ast.walk(fn))}
    assert readers == {"series.py:_small_canonical_terms"}
    fn = module_function("series.py", "_small_canonical_terms")
    scans = [node for node in ast.walk(fn)
             if isinstance(node, (ast.ListComp, ast.GeneratorExp))
             and any(ast.unparse(gen.iter).endswith(".table")
                     for gen in node.generators)]
    assert not [ast.unparse(node) for node in scans
                if any(isinstance(op, ast.Sub) for op in ast.walk(node.elt))]
    cls = next(node for node in source_tree("complex.py").body
               if isinstance(node, ast.ClassDef) and node.name == "Complex")
    assert "coefficient" not in {node.name for node in cls.body
                                 if isinstance(node, ast.FunctionDef)}


def test_canonical_coefficient_reads_no_complex():
    # `Complex` keeps no per-monomial memo, and `canonical_coefficient`
    # reads neither a complex nor its table
    assert "_touching" not in tropwave.complex.Complex.__slots__
    fn = module_function("series.py", "canonical_coefficient")
    names = ({node.attr for node in ast.walk(fn)
              if isinstance(node, ast.Attribute)}
             | {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)})
    assert not names & {"cells", "_cells", "table"}


def test_a_raise_has_one_path():
    # add_monomial always hands f's complex to the raise, through
    # `cells()`, and never picks a base by what f holds; the constructor
    # passes the hand-off on without looking inside it
    names = {node.attr
             for node in ast.walk(module_function("series.py", "add_monomial"))
             if isinstance(node, ast.Attribute)}
    assert "cells" in names and "_cells" not in names
    cells = module_function("series.py", "cells", cls="TropicalSeries")
    assert not [ast.unparse(node) for node in ast.walk(cells)
                if isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "_raised"]


def test_complex_keeps_no_restriction_of_a_presentation_table():
    # a raise's result takes its table in one pass over its own cells, not
    # rows divided down from its presentation's
    cls = next(node for node in source_tree("complex.py").body
               if isinstance(node, ast.ClassDef) and node.name == "Complex")
    assert "restricted" not in {node.name for node in cls.body
                                if isinstance(node, ast.FunctionDef)}


def test_a_raise_scans_no_side_degrees():
    # the one side-degree scan is renormalization's, for a presentation no
    # raise handed degrees to; add_monomial hands its own over
    tree = source_tree("series.py")
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    scans = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "_presentation_side_degrees"):
            guard, up = None, node
            while not isinstance(up, ast.FunctionDef):
                up = parent[up]
                if guard is None and isinstance(up, ast.If):
                    guard = ast.unparse(up.test)
            scans.append((up.name, guard))
    assert scans == [("_small_canonical_terms", "degrees is None")]
    fn = module_function("series.py", "add_monomial")
    raise_call = next(node for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == "TropicalSeries")
    [hand_off] = [kw.value for kw in raise_call.keywords
                  if kw.arg == "_raised"]
    assert ast.unparse(hand_off).endswith("v, degrees)")


def test_the_runner_up_reads_coefficients_not_the_complex():
    # `_second_min_at` prices every monomial from f's support and the
    # domain's vertices, and reads neither f's cells nor a vertex table;
    # a table is built from a complex's own cells alone, with no base to
    # carry rows from
    fn = module_function("wave.py", "_second_min_at")
    names = ({node.attr for node in ast.walk(fn)
              if isinstance(node, ast.Attribute)}
             | {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)})
    assert not names & {"cells", "_cells", "table", "denom"}
    table = module_function("complex.py", "_table")
    assert [a.arg for a in table.args.args] == ["hcells", "support"]


def test_clip_evaluates_each_cut_once():
    # `clip` takes each cut's signs in one list and skips a cut whose
    # least sign is >= 0: no loop scans the ring for a negative sign first
    fn = module_function("complex.py", "clip")
    scans = [node for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.comprehension))
             and ast.unparse(node.iter) == "poly"]
    assert len(scans) == 1 and isinstance(scans[0], ast.comprehension)
    assert not [node for node in ast.walk(fn)
                if isinstance(node, ast.For) and node.orelse]


KERNEL_NAMES = {"Complex", "_Complex", "_Cells", "build", "raised",
                "_triples", "_table", "_min_values", "_nearest_first",
                "_raised_cells", "_join", "_splice", "_turn", "_hull",
                "_check_cell", "_side_lines", "clip", "_clip"}


def test_series_defines_no_kernel_code():
    # the complex, its clip, joins, splices, hulls, table and cell checks
    # live in `complex` alone
    defined = {node.name for node in ast.walk(source_tree("series.py"))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & KERNEL_NAMES
    assert KERNEL_NAMES - {"_Complex", "_Cells", "_clip"} <= {
        node.name for node in ast.walk(source_tree("complex.py"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_series_error_is_defined_once():
    # `series` re-exports the kernel's SeriesError, the one class that the
    # CLI maps and the oracle's errors derive from
    homes = [path.name for path in SOURCES
             for node in ast.walk(source_tree(path.name))
             if isinstance(node, ast.ClassDef) and node.name == "SeriesError"]
    assert homes == ["complex.py"]
    assert tropwave.series.SeriesError is tropwave.complex.SeriesError


def test_the_complex_takes_no_hand_off():
    # a whole build and a raise are two entry points that both call the
    # one constructor, and `kept` calls it too; a complex holds its cells
    # and its presentation, and nothing of the complex it was read off
    cls = next(node for node in source_tree("complex.py").body
               if isinstance(node, ast.ClassDef) and node.name == "Complex")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert [a.arg for a in init.args.args + init.args.kwonlyargs] == [
        "self", "hcells", "support"]
    assert "__new__" not in ast.unparse(source_tree("complex.py"))
    for name in ("build", "raised"):
        fn = module_function("complex.py", name)
        [ret] = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert ast.unparse(ret.value.func) == "Complex"


def test_readers_reach_the_kernel_through_its_entry_points():
    # series, wave, curve and refine use `complex.build`, `complex.raised`,
    # `clip` and the public fields of what they return, and never name a
    # private field of a complex
    reached = set()
    for name in ("series.py", "wave.py", "curve.py", "refine.py"):
        tree = source_tree(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "complex":
                reached |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and ast.unparse(node.value) == "cplx"):
                reached.add(node.attr)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("_hverts", "_pending", "_hcells"), (
                    f"{name}: {ast.unparse(node)}")
    assert reached == {"build", "raised", "Complex", "SeriesError",
                       "Support", "clip"}


def test_no_module_imports_a_private_name_of_another():
    # every name one module of the package takes from another is public
    found = []
    for path in SOURCES:
        for node in ast.walk(source_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("tropwave")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_a_complex_is_its_own_cell_mapping():
    # `Complex` maps each monomial to its cell, and no second class or
    # field holds a view of the same cells
    assert "_Cells" not in {
        node.name for node in ast.walk(source_tree("complex.py"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "cells" not in tropwave.complex.Complex.__slots__
    cls = next(node for node in source_tree("series.py").body
               if isinstance(node, ast.ClassDef)
               and node.name == "TropicalSeries")
    names = ({node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute)}
             | {node.name for node in ast.walk(cls)
                if isinstance(node, ast.FunctionDef)})
    assert not names & {"_complex", "_int_complex"}


def private_names(tree):
    """The private attribute names that the classes of a module define:
    their slots, methods and the attributes their methods set on self."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and ast.unparse(node.value) == "self"):
                names.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "__slots__"):
                names |= set(ast.literal_eval(node.value))
    return {name for name in names if name.startswith("_")}


def test_no_module_reads_a_private_attribute_of_another():
    # an underscore attribute is read on self, or on an instance of a class
    # that the reading module defines; any other object is reached through
    # its public names
    found = []
    for path in SOURCES:
        tree = source_tree(path.name)
        own = private_names(tree)
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and ast.unparse(node.value) != "self"
                  and node.attr not in own]
    assert found == []
