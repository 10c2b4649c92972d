"""Source-level guards: what every module under src/qscat must keep to."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qscat"


def test_src_holds_no_assert_statement():
    """`python -O` strips assert statements, so no check in the program
    may be one: each raises a QscatError (or another exception) instead."""
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []


# library names that no code in src/qscat calls, each kept for a reason
_UNCALLED_IN_SRC = {
    "pow": "reference: tests check frob against BinaryField.pow",
    "det_cofactor": "reference: tests check the elimination determinant against it",
    "intersect_fq": "reference: tests check weight against it",
    "encode": "reference: tests check the codeword scanner's weights against it",
    "rank_weight": "reference: the scalar rank weight of an encoded codeword",
    "solutions": "reference: the enumerated kernel behind count_solutions",
    "frobenius_fixed": "reference: tests check the Frobenius-fixed makers with it",
    "default_field": "entry point: the field the tests and the benchmark build",
    "fast_oracle_agreement": "entry point: acceptance criterion 10 and the benchmark",
    "max_dim_bound": "entry point: acceptance criterion 5",
    "random_frobenius_fixed": "entry point: acceptance criterion 6",
    "random_invertible": "entry point: acceptance criterion 10",
    "random_fqm_subspace": "entry point: acceptance criterion 10",
    "rows_from_text": "entry point: the parser of the witness text rows_to_text writes",
    "vectors": "reference: tests check L(U) and U_s against U's listed vectors",
}


def _binds(fn):
    """The names a function or lambda binds: its parameters and the names
    its own body stores (nested functions bind their own)."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    bound = {p.arg for p in params if p}
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return bound


def test_every_library_function_is_reached_from_src():
    """A top-level def or class, or a non-dunder method, in src/qscat
    must be named by some other Name, Attribute or import in src/qscat,
    or be on _UNCALLED_IN_SRC with its reason: code only tests call
    leaves src/.  A Name counts only where no enclosing function binds
    it, so a parameter or local of the same name is not a caller."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    ]

    def names(node, bound=frozenset()):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            bound = bound | _binds(node)
        found = []
        if isinstance(node, ast.Name) and node.id not in bound:
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name)
        for child in ast.iter_child_nodes(node):
            found += names(child, bound)
        return found

    everywhere = [name for tree in trees for name in names(tree)]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [
                    n for n in node.body
                    if isinstance(n, ast.FunctionDef)
                    and not (n.name.startswith("__") and n.name.endswith("__"))
                ]
    uncalled = {
        node.name for node in defs
        if everywhere.count(node.name) == names(node).count(node.name)
    }
    assert uncalled == set(_UNCALLED_IN_SRC)


_FIELD_TABLES = ("_exp", "_log", "_coord_cols", "_bits_identity", "_fq_of_mask")


def test_only_field_reads_the_field_tables():
    """BinaryField's exp/log tables and its change-of-basis tables are its
    own: no other module under src/qscat reads _exp, _log, _coord_cols,
    _bits_identity or _fq_of_mask, so the change of basis stays behind
    elem_bits, bits_elem and fq_coords."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _FIELD_TABLES
        ]
    assert found == []


# record fields that no code in src/qscat reads, each kept for a reason
_UNREAD_IN_SRC = {
    "SemilinearSystem.alpha": "tests check that the case invariant lies in F_{q^2}",
    "SemilinearSystem.beta": "tests check that the case invariant lies in F_{q^2}",
    "MaxDimBound.value": "acceptance criterion 5",
    "MaxDimBound.exact": "acceptance criterion 5",
    "MaxDimBound.degenerate": "acceptance criterion 5",
    "SaturationInstance.covered": "tests compare the mark bitmap",
}


def _record_fields(cls):
    """The dataclass fields and the __slots__ names a class declares."""
    decorators = [
        d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list
    ]
    fields = []
    if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        fields += [
            n.target.id for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        ]
    for n in cls.body:
        if isinstance(n, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets
        ):
            fields += ast.literal_eval(n.value)
    return fields


def _reads_all_fields(cls):
    """Whether the class hands itself whole to asdict."""
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "asdict"
        and [a.id for a in n.args if isinstance(a, ast.Name)] == ["self"]
        for n in ast.walk(cls)
    )


def test_every_record_field_is_read_in_src():
    """Each dataclass field and each __slots__ name of a class in
    src/qscat must be read as an attribute somewhere in src/qscat, or be
    on _UNREAD_IN_SRC with its reason: state that only tests read leaves
    src/.  A class that calls asdict(self) reads all its fields."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    ]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        "%s.%s" % (cls.name, name)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not _reads_all_fields(cls)
        for name in _record_fields(cls)
        if name not in read
    }
    assert unread == set(_UNREAD_IN_SRC)
