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
    # series, curve and wave name no oracle domain, and the one polygon
    # check among them is the TropicalSeries constructor's guard
    names, checks = set(), []
    for path in SOURCES:
        if path.name not in ("series.py", "curve.py", "wave.py"):
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


def defined_functions(name):
    path = next(p for p in SOURCES if p.name == name)
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def test_segment_cells_are_read_off_their_clips():
    # a segment cell is its clip in `exactlp.rotate_ccw` order, as a polygon
    # cell is: no list of tight constraints orders its ends
    defined = defined_functions("series.py")
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


def series_function(name, cls=None):
    """The definition of ``name`` in series.py, a method of ``cls`` if
    given."""
    path = next(p for p in SOURCES if p.name == "series.py")
    scope = ast.parse(path.read_text())
    if cls is not None:
        scope = next(node for node in scope.body
                     if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in ast.walk(scope)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_a_raise_clips_nothing_from_the_domain():
    # every clip of a raised build starts from v's old cell in f's complex,
    # which is empty for a v outside f's small form
    fn = series_function("_raised_cells")
    starts = [ast.unparse(node.args[0]) for node in ast.walk(fn)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "_clip"]
    assert starts and set(starts) == {"ring"}
    assert any(ast.unparse(node) == "ring = base.hcells.get(v, [])"
               for node in ast.walk(fn) if isinstance(node, ast.Assign))


def test_one_table_scan_serves_every_monomial():
    # `_Complex.touching` is the one scan of the vertex table for a
    # monomial's gap, and renormalization is its one reader, which computes
    # no gap of its own from a table row; a monomial outside a series'
    # support is priced from the domain, so `_Complex` has no `coefficient`
    path = next(p for p in SOURCES if p.name == "series.py")
    tree = ast.parse(path.read_text())
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and ast.unparse(node.func).endswith(".touching")
                       for node in ast.walk(fn))}
    assert readers == {"_small_canonical_terms"}
    fn = series_function("_small_canonical_terms")
    scans = [node for node in ast.walk(fn)
             if isinstance(node, (ast.ListComp, ast.GeneratorExp))
             and any(ast.unparse(gen.iter).endswith(".table")
                     for gen in node.generators)]
    assert not [ast.unparse(node) for node in scans
                if any(isinstance(op, ast.Sub) for op in ast.walk(node.elt))]
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Complex")
    assert "coefficient" not in {node.name for node in cls.body
                                 if isinstance(node, ast.FunctionDef)}


def test_canonical_coefficient_reads_no_complex():
    # `_Complex` keeps no per-monomial memo, and `canonical_coefficient`
    # reads neither a complex nor its table
    assert "_touching" not in tropwave.series._Complex.__slots__
    fn = series_function("canonical_coefficient")
    names = ({node.attr for node in ast.walk(fn)
              if isinstance(node, ast.Attribute)}
             | {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)})
    assert not names & {"_int_complex", "_complex", "table"}


def test_a_raise_has_one_path():
    # add_monomial always hands f's complex to the raise, through
    # `_int_complex`, and never picks a base by what f holds; the
    # constructor passes the hand-off on without looking inside it
    names = {node.attr for node in ast.walk(series_function("add_monomial"))
             if isinstance(node, ast.Attribute)}
    assert "_int_complex" in names and "_complex" not in names
    cells = series_function("cells", cls="TropicalSeries")
    assert not [ast.unparse(node) for node in ast.walk(cells)
                if isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "_raised"]
