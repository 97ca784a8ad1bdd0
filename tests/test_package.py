"""Package-wide structure: every public name has a caller or a stated role,
no top-level function only hands its parameters on to another, and no
module imports a package name that it does not use.

A reference counts only when it resolves to the module that defines the
name: `dists.poisson(...)` in a module that imported distributions as dists
is a call of distributions.poisson, while `rng.poisson(...)` is not.
"""

import ast
from pathlib import Path

import ddpnkit

SRC = Path(ddpnkit.__file__).parent
ROOT = SRC.parent.parent
STEMS = {path.stem for path in SRC.glob("*.py")} - {"__init__"}

# Public names that no src/ module uses, with the role they serve and the
# files that use them: the constructors and formulas the README names and
# the tests check against their closed forms, and the tests' oracles.
ROLES = {
    "distributions.poisson": (
        "constructor of a one-row Poisson batch", ("README.md", "tests/test_distributions.py")),
    "distributions.neg_binomial": (
        "constructor of a one-row negative binomial batch",
        ("README.md", "tests/test_distributions.py")),
    "distributions.gaussian": (
        "constructor of a one-row Gaussian batch", ("README.md", "tests/test_distributions.py")),
    "distributions.mixture": (
        "constructor of a uniform mixture of one-row batches",
        ("README.md", "tests/test_distributions.py")),
    "losses.ddpn_nll": (
        "the paper's Double Poisson loss in mu and gamma",
        ("README.md", "tests/test_losses.py")),
    "losses.ddpn_grads": (
        "the paper's loss gradients in mu and gamma", ("README.md", "tests/test_losses.py")),
    "losses.attenuation_decompose": (
        "the paper's split of the loss into penalty and attenuated residual",
        ("tests/test_losses.py", "tests/test_acceptance.py")),
    "distributions.dp_normalizer": (
        "the paper's normalizing constant c(mu, gamma)", ("tests/test_distributions.py",)),
    "moments.mdf_epsilon": (
        "the paper's moment deviation at one (mu0, var0) cell",
        ("tests/test_moments.py", "tests/test_acceptance.py")),
    "datagen.sine_conflation_true_moments": (
        "test oracle: the sine-conflation process's true moments",
        ("tests/test_datagen.py", "tests/test_acceptance.py")),
    "metrics.ood_curve_metrics": (
        "test oracle: AUROC, AUPR and FPR80 from scores, for the OOD sweep",
        ("tests/test_metrics.py", "tests/test_ood.py")),
}


def _bindings(tree: ast.Module, own: str | None) -> dict:
    """Local name -> (module, attribute) for each package name the file
    imports, with attribute None for a module; a top-level assignment to a
    module's stem (cli binds its lazy modules so) names that module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ddpnkit":
            for alias in node.names:
                bound[alias.asname or alias.name] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ddpnkit."):
            module = node.module.split(".")[1]
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id in STEMS and name.id != own:
                        bound[name.id] = (name.id, None)
    return bound


def _resolved(tree: ast.Module, own: str | None = None) -> set:
    """(module, name) of every package name the file reads."""
    bound = _bindings(tree, own)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            module, attr = bound.get(node.id, (own, node.id))
            if module is not None and attr is not None:
                out.add((module, attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, attr = bound.get(node.value.id, (None, ""))
            if module is not None and attr is None:
                out.add((module, node.attr))
    return out


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_names(tree: ast.Module) -> list:
    """The top-level functions, classes and constants a module defines
    without a leading underscore; cli's bindings of modules are not its own."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [name.id for target in node.targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id not in STEMS]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    """A public top-level function, class or constant is read in its own
    module or from another module that resolves it there, or ROLES names its
    role; a checked twin of a kernel that only tests call fails."""
    trees = _trees()
    used = set().union(*(_resolved(tree, module) for module, tree in trees.items()))
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _public_names(tree)
              if (module, name) not in used and f"{module}.{name}" not in ROLES]
    assert not unused, f"public names without a caller or a role: {unused}"


def test_roles_name_their_users():
    """Each ROLES entry is a public name that no src/ module uses, and every
    file it names reads it: a test resolves it to its module, and the README
    names it in code."""
    trees = _trees()
    used = set().union(*(_resolved(tree, module) for module, tree in trees.items()))
    for qualified, (role, users) in ROLES.items():
        module, name = qualified.split(".")
        assert role and users, qualified
        assert name in _public_names(trees[module]), f"{qualified} is not a public name"
        assert (module, name) not in used, f"{qualified} has a src/ caller; drop its role"
        for user in users:
            text = (ROOT / user).read_text()
            if user.endswith(".py"):
                assert (module, name) in _resolved(ast.parse(text)), f"{user} reads no {qualified}"
            else:
                assert f"`{name}" in text, f"{user} names no {qualified}"


def _call_target(func, bound: dict, own: str, local: set) -> tuple | None:
    """(module, name) of the package function that a call of func calls, or
    None. local holds the names of own's top-level functions."""
    target = None
    if isinstance(func, ast.Name) and func.id in bound:
        target = bound[func.id]
    elif isinstance(func, ast.Name) and func.id in local:
        target = (own, func.id)
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module, attr = bound.get(func.value.id, (None, ""))
        target = (module, func.attr) if attr is None else None
    return None if target is None or target[1] is None else target


def _forwarded_to(node: ast.FunctionDef, bound: dict, own: str, local: set) -> str | None:
    """The package function that node's whole body, after the docstring,
    returns a call of with node's parameters in order, or None."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    call = body[0].value
    target = _call_target(getattr(call, "func", None), bound, own, local)
    if target is None:
        return None
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    params += [node.args.vararg.arg] if node.args.vararg else []
    params += [a.arg for a in node.args.kwonlyargs]
    params += [node.args.kwarg.arg] if node.args.kwarg else []
    passed = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    passed += [k.value for k in call.keywords
               if k.arg is None or k.arg == getattr(k.value, "id", None)]
    if (len(passed) != len(call.args) + len(call.keywords)
            or [getattr(a, "id", None) for a in passed] != params):
        return None
    return ".".join(target)


def test_no_function_only_forwards_its_parameters():
    """A top-level function whose body, after its docstring, is only `return
    f(<its parameters, in order>)` for a package function f is a second name
    for f, and fails unless ROLES names its role."""
    twins = []
    for module, tree in _trees().items():
        bound = _bindings(tree, module)
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        local = {node.name for node in functions}
        for node in functions:
            if f"{module}.{node.name}" not in ROLES:
                target = _forwarded_to(node, bound, module, local)
                if target is not None:
                    twins.append(f"{module}.{node.name} -> {target}")
    assert not twins, f"functions that only forward their parameters: {twins}"


def test_no_module_imports_a_package_name_it_does_not_use():
    """A name that a module imports from the package is read there; an import
    kept only so that another module can reach the name through it fails."""
    unread = []
    for module, tree in _trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ddpnkit"):
                unread += [f"{module}.{alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name) not in read]
    assert not unread, f"package names imported and never used: {unread}"


# Functions whose defaulted parameters are set from outside src/: the console
# script calls main(), and the tests pass it argv.
ENTRY_POINTS = ("cli.main",)


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A defaulted parameter of a top-level function is set, by keyword or
    by position, by some call in src/; a knob that nothing turns fails,
    unless ROLES or ENTRY_POINTS names the function."""
    trees = _trees()
    set_by_calls = {}  # (module, name) -> parameter positions and names some call sets
    for module, tree in trees.items():
        bound = _bindings(tree, module)
        local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            target = _call_target(call.func, bound, module, local)
            if target is None:
                continue
            passed = set_by_calls.setdefault(target, set())
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                passed.add("*")
            passed.update(range(len(call.args)))
            passed.update(k.arg for k in call.keywords)
    unset = []
    for module, tree in trees.items():
        for node in tree.body:
            qualified = f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else None
            if qualified is None or qualified in ROLES or qualified in ENTRY_POINTS:
                continue
            passed = set_by_calls.get((module, node.name), set())
            positional = node.args.posonlyargs + node.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(node.args.kwonlyargs,
                                                         node.args.kw_defaults) if d is not None]
            unset += [f"{qualified}({name}=)" for i, name in defaulted
                      if "*" not in passed and i not in passed and name not in passed]
    assert not unset, f"defaulted parameters that no src/ call sets: {unset}"
