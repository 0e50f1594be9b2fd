"""Every public top-level function, class and constant of ``resnetlab`` has a
caller in ``src/``, every defaulted parameter of a public function is passed
by some call there and left out by some call in ``src/`` or ``tests/``, every
defaulted parameter of a private function is left out by some call in
``src/``, and every field of a class is read there: code, options and values
that only tests reach belong with the tests."""

import ast
import dataclasses
import math
from pathlib import Path

from resnetlab.training import RUNLOG_COLUMNS, RunLog

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "resnetlab"

# public names kept without a caller in src/, each for one reason
ALLOWED = {
    "load_reports_jsonl": "the README documents it as the reader of bounds.jsonl",
    "load_dataset": "it reads back the dataset files train writes; checking a "
                    "run's data against them is planned work for certify",
}


def modules():
    """{module name: parsed source} for every module but the re-exporting __init__."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def public_definitions(tree):
    """(name, node) for each public top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def uses(tree):
    """(name, line) of each read of a bare name and of each ``module.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}", node.lineno


def test_no_public_symbol_without_a_caller():
    trees = modules()
    reads = {mod: list(uses(tree)) for mod, tree in trees.items()}
    dead = []
    for mod, tree in trees.items():
        for name, node in public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            called = any(
                (used == name and (other != mod or line not in own))
                or used == f"{mod}.{name}"
                for other, found in reads.items() for used, line in found)
            if not called and name not in ALLOWED:
                dead.append(f"{mod}.{name}")
    assert not dead, f"public symbols with no caller in src/: {dead}"


def test_allowlist_is_current():
    defined = {name for tree in modules().values() for name, _ in public_definitions(tree)}
    assert set(ALLOWED) <= defined


# defaulted parameters kept although no call in src/ passes them, each for one reason
ALLOWED_DEFAULTS = {
    "finite_diff_grad.step": "the oracle's convergence test varies the step",
    "main.argv": "the console-script entry point calls main() with no argument",
}


def optional_parameters(tree, private=False):
    """(function, parameter, position or None) for each defaulted parameter of
    a public (or, with ``private``, a private) top-level function;
    keyword-only parameters have no position."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") != private:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, positional[i].arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def called_name(call):
    """The bare name or attribute a call invokes, None for any other callee."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def passed_arguments(trees):
    """{function name: [largest positional count, keyword names]} over every
    call of a bare name or attribute; ``*`` passes every position, ``**``
    every keyword."""
    passed = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = called_name(node)
        if name is None:
            continue
        entry = passed.setdefault(name, [0, set()])
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        entry[0] = max(entry[0], math.inf if starred else len(node.args))
        entry[1].update(kw.arg or "**" for kw in node.keywords)
    return passed


def test_every_default_is_overridden_somewhere():
    trees = modules().values()
    passed = passed_arguments(trees)
    never = []
    for tree in trees:
        for func, param, position in optional_parameters(tree):
            count, keywords = passed.get(func, (0, set()))
            overridden = (param in keywords or "**" in keywords
                          or (position is not None and position < count))
            if not overridden and f"{func}.{param}" not in ALLOWED_DEFAULTS:
                never.append(f"{func}.{param}")
    assert not never, (f"defaulted parameters that no call in src/ passes "
                       f"(make them constants): {never}")


def explicit_calls(trees):
    """Every call in ``trees`` without ``*args`` or ``**kwargs``, whose
    passed parameters are known from the source."""
    return [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and not any(isinstance(a, ast.Starred) for a in node.args)
            and all(kw.arg is not None for kw in node.keywords)]


def omits(call, param, position):
    """Whether ``call`` leaves the parameter to its default."""
    return ((position is None or len(call.args) <= position)
            and all(kw.arg != param for kw in call.keywords))


def test_every_default_is_omitted_somewhere():
    """A default that every call overrides is never used, so the parameter
    should be required. Calls with ``*args`` or ``**kwargs`` are skipped,
    since which parameters they pass is not known from the source."""
    trees = modules().values()
    test_trees = [ast.parse(path.read_text(), str(path))
                  for path in sorted(TESTS.glob("*.py"))]
    calls = explicit_calls([*trees, *test_trees])
    always = [f"{func}.{param}" for tree in trees
              for func, param, position in optional_parameters(tree)
              if not any(called_name(call) == func and omits(call, param, position)
                         for call in calls)]
    assert not always, (f"defaulted parameters that every call in src/ and tests/ "
                        f"passes (make them required): {always}")


def test_private_defaults_are_used_in_src():
    """A private function's default that every call in ``src/`` overrides
    serves only the tests, so the parameter should be required. Private
    functions that ``src/`` calls by no name, only passes as values, are
    skipped."""
    trees = modules().values()
    calls = explicit_calls(trees)
    test_only = []
    for tree in trees:
        for func, param, position in optional_parameters(tree, private=True):
            own = [call for call in calls if called_name(call) == func]
            if own and not any(omits(call, param, position) for call in own):
                test_only.append(f"{func}.{param}")
    assert not test_only, (f"defaulted parameters of private functions that every "
                           f"call in src/ passes (make them required): {test_only}")


def test_default_allowlist_is_current():
    defined = {f"{func}.{param}" for tree in modules().values()
               for func, param, _ in optional_parameters(tree)}
    assert set(ALLOWED_DEFAULTS) <= defined


# classes whose fields are kept although src/ reads some of them by no
# attribute, each for one reason
ALLOWED_FIELDS = {
    "ExperimentConfig": "asdict writes every key into config.json",
    "ScalingFit": "asdict writes every field into scaling_fits.json",
}


def class_fields(tree):
    """(class, field) for each annotated name of a top-level class body and
    each attribute that the class's ``__init__`` sets on ``self``."""
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield cls.name, item.target.id
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        yield cls.name, node.attr


def attribute_reads(node, reads):
    """Adds to ``reads`` the name of each attribute loaded under ``node``,
    except inside ``__init__`` and ``__post_init__``, which set and check
    fields but are not their readers."""
    if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__post_init__"):
        return reads
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        reads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        attribute_reads(child, reads)
    return reads


def test_every_field_is_read():
    trees = modules()
    reads = set()
    for tree in trees.values():
        attribute_reads(tree, reads)
    unread = [f"{mod}.{cls}.{name}" for mod, tree in trees.items()
              for cls, name in class_fields(tree)
              if name not in reads and cls not in ALLOWED_FIELDS]
    assert not unread, f"fields that no code in src/ reads: {unread}"


def test_field_allowlist_is_current():
    defined = {cls for tree in modules().values() for cls, _ in class_fields(tree)}
    assert set(ALLOWED_FIELDS) <= defined


def test_csv_is_written_only_by_data():
    """``data.write_csv`` is the one owner of the CSV number format."""
    writers = [f"{mod}:{node.lineno}" for mod, tree in modules().items() if mod != "data"
               for node in ast.walk(tree)
               if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "csv" and node.attr in ("writer", "DictWriter"))
               or (isinstance(node, ast.ImportFrom) and node.module == "csv"
                   and any(a.name in ("writer", "DictWriter") for a in node.names))]
    assert not writers, f"csv writers outside data.py: {writers}"


def test_json_is_written_only_by_data():
    """``data.write_json`` is the one owner of the JSON file format;
    ``json.dumps`` of single lines, as in ``bounds.jsonl``, is not a file."""
    writers = [f"{mod}:{node.lineno}" for mod, tree in modules().items() if mod != "data"
               for node in ast.walk(tree)
               if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "json" and node.attr == "dump")
               or (isinstance(node, ast.ImportFrom) and node.module == "json"
                   and any(a.name == "dump" for a in node.names))]
    assert not writers, f"json.dump outside data.py: {writers}"


def test_runlog_fields_are_the_columns():
    """``train``, ``save_runlog`` and ``load_runlog`` build and read a
    ``RunLog`` by position, so its fields but ``g_layers`` are the run-log
    columns in order."""
    fields = [f.name for f in dataclasses.fields(RunLog) if f.name != "g_layers"]
    assert fields == RUNLOG_COLUMNS


# names in the benchmark's NAMED_FUNCTIONS table that resolve to no function,
# each for one reason; the test fails once either resolves again
STALE_BENCHMARK_NAMES = {
    "network.outputs_only": "forward_batch replaced it; the table still names it",
    "data.check_assumptions": "it moved to bounds; the table still names data",
}


def test_benchmark_names_resolve():
    """A function that the benchmark times by name is not deleted unnoticed.
    The table is read from perfbench/run.py's source, not imported."""
    tree = ast.parse((TESTS.parent / "perfbench" / "run.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "NAMED_FUNCTIONS" for t in node.targets))
    named = set(ast.literal_eval(table))
    defined = {f"{mod}.{node.name}" for mod, tree in modules().items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert named - defined == set(STALE_BENCHMARK_NAMES)


def test_chunk_budget_has_two_readers():
    """``CHUNK_BYTES`` is read by ``network.layer_span``, which sizes every
    chunk of layers of the forward pass, the Jacobian stack, the training
    update and the per-layer squares, and by the analysis path reader; every
    other chunked loop goes through one of the two."""
    readers = {f"{mod}.{node.name}" for mod, tree in modules().items()
               for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and any(used in ("CHUNK_BYTES", "network.CHUNK_BYTES")
                       for used, _ in uses(node))}
    assert readers == {"network.layer_span", "analysis._path_rows"}
    assert readers_of("layer_span", "network") == {"network", "training"}


def test_training_forms_no_matrix_product():
    """``training`` makes no ``.dot(``, ``matmul`` or ``@``: the layer loops
    stay in ``network`` and ``autograd``, and the layer gradients are formed
    by ``autograd.Adjoint.layer_grads``, one chunk at a time, which the
    update only scales and subtracts."""
    tree = modules()["training"]
    products = [ast.unparse(node) for node in ast.walk(tree)
                if (isinstance(node, ast.Call)
                    and called_name(node) in ("dot", "matmul", "einsum", "tensordot"))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))]
    assert products == []


def readers_of(name, home):
    """Modules of src/ that read ``name``, bare or as ``home.name``."""
    return {mod for mod, tree in modules().items()
            if any(used in (name, f"{home}.{name}") for used, _ in uses(tree))}


def test_certifiers_and_step_blocks_have_their_readers():
    """The draw and Hessian certificates run only inside ``bounds``, through
    ``certify_draws``. Every gradient pass runs in one trace block, which
    ``train``, the draw sweep and ``autograd`` itself size by
    ``trace_block_size``."""
    for name in ("certify_forward", "certify_loss_bound", "certify_gradient_upper",
                 "certify_gradient_lower", "certify_hessian"):
        assert readers_of(name, "bounds") == {"bounds"}, name
    assert readers_of("trace_block_size", "autograd") == {"autograd", "training", "bounds"}
