"""turbscan call-graph builder tests over synthetic module sets.

Each test builds a tiny multi-module "project" from inline source and
checks that the :class:`~repro.lint.program.Program` model resolves the
right edges: cross-module imports, ``self``-method calls, attribute
receivers, virtual dispatch, spawn hand-offs and path queries.
"""

from repro.lint import SourceFile
from repro.lint.program import Program


def make(module: str, text: str) -> SourceFile:
    """A synthetic SourceFile under a dotted module name."""
    path = "/synthetic/" + module.replace(".", "/") + ".py"
    return SourceFile(path, module, text=text)


def edge_pairs(program: Program, kind: str | None = None):
    """``(caller, callee)`` pairs, optionally filtered by edge kind."""
    return {
        (edge.caller, edge.callee)
        for edge in program.edges
        if kind is None or edge.kind == kind
    }


def test_cross_module_call_edge():
    alpha = make(
        "repro.alpha",
        '"""A."""\n\ndef helper():\n    return 1\n',
    )
    beta = make(
        "repro.beta",
        '"""B."""\n\nfrom repro.alpha import helper\n\n'
        "def caller():\n    return helper()\n",
    )
    program = Program([alpha, beta])
    assert ("repro.beta.caller", "repro.alpha.helper") in edge_pairs(
        program, "call"
    )


def test_relative_import_resolves():
    alpha = make(
        "repro.pkg.alpha",
        '"""A."""\n\ndef helper():\n    return 1\n',
    )
    beta = make(
        "repro.pkg.beta",
        '"""B."""\n\nfrom .alpha import helper\n\n'
        "def caller():\n    return helper()\n",
    )
    program = Program([alpha, beta])
    assert (
        "repro.pkg.beta.caller",
        "repro.pkg.alpha.helper",
    ) in edge_pairs(program, "call")


def test_self_method_call_edge():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "class Engine:\n"
        '    """E."""\n\n'
        "    def run(self):\n"
        "        self.step()\n\n"
        "    def step(self):\n"
        "        pass\n",
    )
    program = Program([source])
    assert (
        "repro.alpha.Engine.run",
        "repro.alpha.Engine.step",
    ) in edge_pairs(program, "call")


def test_attribute_receiver_resolved_from_init_assignment():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "class Worker:\n"
        '    """W."""\n\n'
        "    def go(self):\n"
        "        pass\n\n"
        "class Boss:\n"
        '    """B."""\n\n'
        "    def __init__(self):\n"
        "        self.worker = Worker()\n\n"
        "    def delegate(self):\n"
        "        self.worker.go()\n",
    )
    program = Program([source])
    assert (
        "repro.alpha.Boss.delegate",
        "repro.alpha.Worker.go",
    ) in edge_pairs(program, "call")


def test_virtual_dispatch_reaches_overrides():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "class Transport:\n"
        '    """T."""\n\n'
        "    def send(self):\n"
        "        pass\n\n"
        "class TcpTransport(Transport):\n"
        '    """T."""\n\n'
        "    def send(self):\n"
        "        pass\n\n"
        "def use(transport: Transport):\n"
        "    transport.send()\n",
    )
    program = Program([source])
    pairs = edge_pairs(program, "call")
    assert ("repro.alpha.use", "repro.alpha.Transport.send") in pairs
    assert ("repro.alpha.use", "repro.alpha.TcpTransport.send") in pairs


def test_submit_and_thread_target_are_spawn_edges():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "import threading\n\n"
        "class Runner:\n"
        '    """R."""\n\n'
        "    def work(self):\n"
        "        pass\n\n"
        "    def fan_out(self, pool):\n"
        "        pool.submit(self.work)\n"
        "        threading.Thread(target=self.work).start()\n",
    )
    program = Program([source])
    spawns = edge_pairs(program, "spawn")
    assert ("repro.alpha.Runner.fan_out", "repro.alpha.Runner.work") in spawns
    assert not any(
        pair == ("repro.alpha.Runner.fan_out", "repro.alpha.Runner.work")
        for pair in edge_pairs(program, "call")
    )


def test_nested_function_bodies_are_deferred():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "def leaf():\n"
        "    pass\n\n"
        "def outer():\n"
        "    def inner():\n"
        "        leaf()\n"
        "    return inner\n",
    )
    program = Program([source])
    assert ("repro.alpha.outer", "repro.alpha.leaf") in edge_pairs(
        program, "spawn"
    )


def test_reachability_and_spawn_filtering():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "def sink():\n"
        "    pass\n\n"
        "def sync_caller():\n"
        "    sink()\n\n"
        "def spawner(pool):\n"
        "    pool.submit(sink)\n",
    )
    program = Program([source])
    everyone = program.reverse_reachable({"repro.alpha.sink"})
    assert "repro.alpha.sync_caller" in everyone
    assert "repro.alpha.spawner" in everyone
    sync_only = program.reverse_reachable({"repro.alpha.sink"}, spawn=False)
    assert "repro.alpha.sync_caller" in sync_only
    assert "repro.alpha.spawner" not in sync_only


def test_find_path_respects_avoid():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "def c():\n"
        "    pass\n\n"
        "def b():\n"
        "    c()\n\n"
        "def a():\n"
        "    b()\n",
    )
    program = Program([source])
    path = program.find_path("repro.alpha.a", {"repro.alpha.c"})
    assert path is not None
    assert [edge.callee for edge in path] == [
        "repro.alpha.b",
        "repro.alpha.c",
    ]
    blocked = program.find_path(
        "repro.alpha.a",
        {"repro.alpha.c"},
        avoid=frozenset({"repro.alpha.b"}),
    )
    assert blocked is None


def test_callees_at_indexes_call_sites():
    source = make(
        "repro.alpha",
        '"""A."""\n\n'
        "def helper():\n"
        "    pass\n\n"
        "def caller():\n"
        "    helper()\n",
    )
    program = Program([source])
    assert program.callees_at("repro.alpha.caller", 7) == {
        "repro.alpha.helper"
    }
