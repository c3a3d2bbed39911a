"""Meta tests on the library's public surface: documentation coverage
and import hygiene."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import threading
import time

import pytest

import repro
import repro.rts
from repro.orb.transfer import Inbox
from repro.orb.transport import Fabric, TransportTimeout

SUBPACKAGES = [
    "repro.cdr",
    "repro.core",
    "repro.dist",
    "repro.idl",
    "repro.orb",
    "repro.rts",
    "repro.simnet",
    "repro.bench",
]


def iter_modules():
    for name in SUBPACKAGES:
        package = importlib.import_module(name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            yield importlib.import_module(f"{name}.{info.name}")


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__ for m in iter_modules() if not m.__doc__
        ]
        assert undocumented == []

    def test_every_public_class_is_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_every_public_function_is_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []


class TestExports:
    def test_top_level_lazy_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name) is not None

    def test_top_level_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_dir_covers_all(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_subpackage_all_lists_resolve(self):
        for name in SUBPACKAGES:
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", []):
                assert hasattr(module, export), f"{name}.{export}"


#: The mpi4py surface: each method is written once.
COMMUNICATOR_METHODS = {
    "send", "recv", "isend", "irecv", "probe", "sendrecv", "Send", "Recv",
    "barrier", "bcast", "scatter", "gather", "allgather", "alltoall",
    "reduce", "allreduce", "dup", "_fold", "_check_root",
}
#: The RTS data plane and broadcast, written once anywhere in ``repro``.
RTS_DATA_PLANE = {"gather_chunks", "gather_views", "scatter_chunks", "broadcast"}


def _classes_under(root):
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield path, node


class TestOneCommunicator:
    def test_no_method_of_the_surface_is_defined_twice(self):
        """A second communicator or a second RTS data plane cannot grow
        back unnoticed: a backend supplies a kernel, not a copy of the
        surface.  The communicator is watched under ``repro.rts``, the
        RTS data plane everywhere under ``repro``."""
        rts_dir = pathlib.Path(repro.rts.__path__[0])
        owners = {}
        for path, node in _classes_under(repro.__path__[0]):
            watched = RTS_DATA_PLANE
            if path.parent == rts_dir and node.name != "RuntimeSystem":
                watched = watched | COMMUNICATOR_METHODS
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in watched:
                    owners.setdefault(item.name, []).append(node.name)
        assert {k: v for k, v in owners.items() if len(v) != 1} == {}
        assert set(owners) == COMMUNICATOR_METHODS | RTS_DATA_PLANE
        assert {owners[name][0] for name in RTS_DATA_PLANE} == {"RuntimeSystem"}

    def test_no_class_realizes_the_rts_a_second_time(self):
        """The data plane differs between kernels only in how the root
        exposes its buffer, so nothing subclasses ``RuntimeSystem``."""
        subclasses = [
            node.name
            for _, node in _classes_under(repro.__path__[0])
            for base in node.bases
            if ast.unparse(base).rpartition(".")[2] == "RuntimeSystem"
        ]
        assert subclasses == []

    def test_the_old_rts_name_is_the_one_rts(self):
        # Only because bench/layers.py still builds the RTS by this name.
        assert repro.rts.MessagePassingRTS is repro.rts.RuntimeSystem


#: ``getattr(x, name, None)`` asks "do you happen to have this?" —
#: the question fabrics, naming objects, client runtimes and servant
#: groups answer by *declaring* their surface
#: (``transport.Fabric``, ``naming.NamingService``,
#: ``proxy.ClientRuntime``, ``adapter.ServantGroup``).  What is left
#: asks it of something else; each entry is
#: ``(file under src/repro, receiver, attribute)`` with its reason.
ALLOWED_NONE_PROBES = {
    ("orb/proxy.py", "value", "'comm'"):
        "a user-supplied argument: distributed sequence or plain value",
    ("orb/proxy.py", "template", "'nranks'"):
        "a user-supplied template: spec tuples carry no rank count",
    ("orb/operation.py", "servant", "self.name"):
        "dynamic dispatch: the operation named by the request",
}


class TestNoCapabilityProbes:
    def test_core_and_orb_ask_none_default_getattr_only_where_allowed(self):
        """A capability probe cannot grow back under ``repro.core``,
        ``repro.orb`` or ``repro.ft`` unnoticed: a new optional feature
        of a fabric, naming object, runtime or group is a declared
        attribute with a default, not a ``getattr(..., None)`` at each
        reader."""
        root = pathlib.Path(repro.__path__[0])
        found = set()
        for package in ("core", "orb", "ft"):
            for path in sorted((root / package).glob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "getattr"
                        and len(node.args) == 3
                        and isinstance(node.args[2], ast.Constant)
                        and node.args[2].value is None
                    ):
                        found.add(
                            (
                                str(path.relative_to(root)),
                                ast.unparse(node.args[0]),
                                ast.unparse(node.args[1]),
                            )
                        )
        assert found == set(ALLOWED_NONE_PROBES)

    def test_the_wire_codecs_ask_no_address_what_it_might_have(self):
        """``getattr(port, "host", "")`` is the same probe with a
        string default: the two address classes declare ``host``,
        ``tcp_port`` and ``wire``, so nothing that encodes one asks —
        and nothing imports the other class at decode time."""
        root = pathlib.Path(repro.__path__[0]) / "orb"
        found = []
        for name in ("request.py", "reference.py", "transport.py"):
            tree = ast.parse((root / name).read_text())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) == 3
                ):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    found += [
                        f"{name}:{node.lineno}: function-level import"
                        for node in ast.walk(function)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                    ]
        assert found == []


#: The options of the constructors and calls a deployment is written
#: in, and the fields of the two policy records.  Adding one is a
#: deliberate edit of this table — name, in the same diff, the two
#: callers that need different values of it.
OPTION_BUDGET = {
    "repro.core.orb:ORB.__init__": (
        "name", "timeout", "fabric", "naming", "ft_policy", "trace",
        "sanitize",
    ),
    "repro.core.orb:ORB.serve": (
        "name", "servant_factory", "nthreads", "host", "multiport",
        "templates", "reply_cache_bytes",
    ),
    "repro.core.orb:ORB.client_runtime": (
        "comm", "label", "pipeline_depth", "ft_policy",
    ),
    # ``orb`` is internal, not an option: the minting ORB, whose
    # registry names the runtime's tallies and whose open-runtime list
    # the runtime leaves at close.  Only ``ORB.client_runtime`` passes
    # it, and no ``ORB`` call takes it.
    "repro.orb.proxy:ClientRuntime.__init__": (
        "fabric", "naming", "comm", "timeout", "label",
        "pipeline_depth", "ft_policy", "trace", "sanitize", "orb",
    ),
    "repro.orb.adapter:ServantGroup.__init__": (
        "fabric", "naming", "name", "servant_factory", "nthreads",
        "host", "multiport", "templates", "reply_cache_bytes",
        "request_timeout", "trace",
    ),
    "repro.orb.proxy:ClientProxy._group_bind": (
        "group_name", "runtime", "transfer", "ft_policy",
    ),
    "repro.orb.socketnet:SocketFabric.__init__": (
        "name", "bind_host", "bind_port",
    ),
    "repro.ft.policy:FtPolicy": (
        "deadline_ms", "max_retries", "backoff_base_ms",
        "backoff_cap_ms",
    ),
}

#: Deleted names, each spelled in two pieces so a word grep for it
#: over the tree stays empty: the second event channel, then the
#: counter stores and mirror hooks that ``Counter`` objects taken from
#: the ORB's registry replaced, then the two extra threads of a
#: collective group (its receive/relay stage and its reply sender) with
#: the queue bounds and staging rotation that existed for them, then
#: the CDR head codec's helpers — the ``ulong length`` + pad rule moved
#: into the fixed-layout head (``repro.cdr.head``), and the two copies
#: of the address codec became ``transport.write_address`` /
#: ``read_address``.  Then the RTS realizations that the one
#: ``RuntimeSystem`` over a kernel's ``expose`` replaced.  Last, the
#: pipeline and thread-vs-process harnesses that ``bench/`` and the
#: tier-1 pipelining tests replaced, and a backend query with no caller.
#: Then the second naming class and hash ring the one naming service's
#: group directory replaced, and the group launch path, recovery loop
#: and thread-local replica tag that the engine's failover action and
#: its spans' own ``replica=`` replaced.  Then the linter's two
#: rank-guard visitors, and the pre-passes and helper copies that its
#: one guard walk, module index and rule vocabulary replaced, with
#: PD213's policy-inspecting branch.  Last, the fault-tolerance switch
#: no caller set, and the linter's second IDL front end (its symbol
#: table, walks, inheritance flattener and the checks the semantic
#: analyzer now makes).  Then the two classes that pulled replies and
#: chunks off their ports, with their receiver role, which the one
#: ``Inbox`` upcall replaced, and three helpers nothing called.  Then
#: the socket fabric's receive pool and its guard, and last the
#: non-blocking pull and collective verb nothing called, and the lock
#: table the socket fabric's one link table replaced.  Then the
#: thread-local gather staging pool, which a gather that lends every
#: rank's pieces in place replaced.  Last, the pluggable replica
#: selection and its load-report path, which the one round-robin
#: choice by bind token replaced, and a membership call with no caller.
#: Then the server's admission limits no caller set, with their BUSY
#: replies and rejector thread, which left per-client backpressure the
#: one valve, and the hand-written LRU ``functools.lru_cache`` replaced.
#: Then a serial object's two dispatch options, which its one pool
#: (per-client order, the rank thread first, threads started as
#: clients overlap) replaced, the fault-tolerance fields only tests
#: set, and the client group that spawned afresh on every run.
RETIRED_IDENTIFIERS = {
    "trac" "er",
    "ft_" "stats",
    "on_" "bump",
    "attach_" "metrics",
    "register_" "account",
    "_Request" "Prefetcher",
    "_Reply" "Sender",
    "reply_" "sender",
    "_staging_" "name",
    "_staging_" "seq",
    "_STAGING_" "ROTATION",
    "_PREFETCH_" "DEPTH",
    "_REPLY_QUEUE_" "DEPTH",
    "_append_" "body",
    "begin_octet_" "run",
    "read_octet_" "run",
    "append_" "encoder",
    "_write_" "port",
    "_read_" "port",
    "_write_" "address",
    "_read_" "address",
    "OneSided" "RTS",
    "Process" "RTS",
    "Window" "Error",
    "remote_" "element",
    "run_" "pipeline",
    "throughput_" "ratio",
    "run_" "procs",
    "Pipeline" "Point",
    "Procs" "Point",
    "current_" "backend",
    "Sharded" "Naming",
    "_Sh" "ard",
    "shard_" "for",
    "nsh" "ards",
    "is_" "group",
    "group_" "names",
    "Hash" "Ring",
    "stable_" "hash",
    "_no_" "directory",
    "failover_" "worthy",
    "_group_" "launch_fn",
    "_group_" "replay",
    "replica_" "scope",
    "active_" "replica",
    "raise_" "failure",
    "_RankGuard" "Visitor",
    "_UnagreedInvocation" "Visitor",
    "_nonretry_" "policy",
    "_mentions_" "rank",
    "_common_prefix_" "keys",
    "_spmd_proxy_" "names",
    "degrade_to_" "centralized",
    "_Sym" "bols",
    "_iter_" "decls",
    "_iter_" "types",
    "_flatten_" "members",
    "_check_" "inheritance",
    "_check_dsequence_" "elements",
    "Chunk" "Collector",
    "Reply" "Demux",
    "_receive_" "one",
    "_rece" "iving",
    "encode_plain_" "body",
    "has_" "distributed",
    "distributed_" "params",
    "_Conn" "Buffers",
    "_POOL_BUFFER_" "SIZE",
    "Buffer" "Guard",
    "check_and_" "poison",
    "try_" "recv",
    "invoke_all_" "nb",
    "_conn_" "locks",
    "_Staging" "Pool",
    "staging_" "array",
    "drop_" "staging",
    "Least" "Loaded",
    "Selection" "Policy",
    "policy_" "for",
    "report_" "health",
    "add_" "member",
    "Server" "Config",
    "_Busy" "Rejector",
    "max_" "inflight",
    "max_" "connections",
    "KIND_" "BUSY",
    "_Schedule" "Cache",
    "dispatch_" "policy",
    "dispatch_" "workers",
    "DEFAULT_DISPATCH_" "WORKERS",
    "retryable_" "categories",
    "max_" "failovers",
    "SpmdClient" "Group",
    "run_" "clients",
    "run_" "groups",
    "Client" "Point",
    "Group" "Window",
    "_Simulated" "Clients",
    "format_" "clients",
    "format_" "groups",
    "run_" "faults",
    "Fault" "Point",
    "gate_" "failures",
    "format_" "faults",
    "points_as_" "dicts",
}


class TestOptionBudget:
    @pytest.mark.parametrize("where", sorted(OPTION_BUDGET))
    def test_options_are_exactly_the_pinned_ones(self, where):
        module_name, _, path = where.partition(":")
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
        if inspect.isclass(obj):
            options = tuple(f.name for f in dataclasses.fields(obj))
        else:
            # A classmethod's own signature has already dropped ``cls``.
            function = getattr(obj, "__func__", obj)
            options = tuple(inspect.signature(function).parameters)[1:]
        assert options == OPTION_BUDGET[where]

    def test_the_retired_names_stay_retired(self):
        """No parameter, attribute, field, function or variable under
        ``src/repro`` carries a retired name: traffic is observed at
        ``fabric.add_meter`` and the RTS object, not through a hook
        threaded down the invocation path, and an event is counted in
        one ``Counter``, not in a private store mirrored into
        another."""
        root = pathlib.Path(repro.__path__[0])
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = {
                    getattr(node, "arg", None),
                    getattr(node, "attr", None),
                    getattr(node, "id", None),
                    getattr(node, "name", None),
                }
                if RETIRED_IDENTIFIERS & names:
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
        assert found == []


def _lint_trees(package="lint"):
    root = pathlib.Path(repro.__path__[0]) / package
    for path in sorted(root.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _function_imports(*packages):
    """``module:line`` of every import made inside a function."""
    return [
        f"{name}:{node.lineno}"
        for package in packages
        for name, tree in _lint_trees(package)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_the_orb_imports_at_module_top():
    assert _function_imports("orb") == []


class TestOneLintModel:
    """Family B reads one model of the program: one vocabulary in
    ``repro.lint.rules``, one rank-guard walk, one module index.
    Family A reads the semantic analyzer's verdict and resolved unit:
    the linter has no IDL front end of its own."""

    def test_the_linter_imports_at_module_top(self):
        assert _function_imports("lint", "idl") == []

    def test_each_shared_helper_is_written_once(self):
        visitors, call_names, builders = [], [], []
        for name, tree in _lint_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith("NodeVisitor")
                    for base in node.bases
                ):
                    visitors.append(f"{name}:{node.name}")
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.lstrip("_") == "call_name":
                    call_names.append(f"{name}:{node.name}")
                called = {
                    ast.unparse(call.func)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                }
                reads_rules = any(
                    isinstance(n, ast.Name) and n.id == "RULES"
                    for n in ast.walk(node)
                )
                if "Diagnostic" in called and reads_rules:
                    builders.append(f"{name}:{node.name}")
        assert len(visitors) <= 1
        assert call_names == ["rules.py:call_name"]
        assert builders == ["rules.py:diag"]

    def test_the_linter_resolves_no_idl_names(self):
        found = []
        for name, tree in _lint_trees():
            for node in ast.walk(tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.lstrip("_") == "lookup"
                ):
                    found.append(f"{name}:{node.lineno}:def {node.name}")
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if "repro.idl.ast" in modules:
                    found.append(f"{name}:{node.lineno}:imports repro.idl.ast")
        assert found == []


#: Where every timer reads :mod:`repro.clock`, relative to ``repro``.
CLOCKED = ("orb", "ft", "groups", "rts/mpi.py", "rts/executor.py")


class TestOneClock:
    def test_the_timers_read_no_clock_of_their_own(self):
        """No module of the ORB, the ft and groups layers, the thread
        kernel or the executor imports ``time``, and nothing imports
        a name out of ``repro.clock``, which would keep the real
        clock when a test replaces it."""
        root = pathlib.Path(repro.__path__[0])
        found = [
            f"{path.relative_to(root)}:{node.lineno}"
            for where in CLOCKED
            for path in (
                [root / where]
                if where.endswith(".py")
                else sorted((root / where).rglob("*.py"))
            )
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and "time" in [alias.name for alias in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "time"
        ]
        found += [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if re.search(r"^\s*from repro\.clock import", path.read_text(), re.M)
        ]
        assert found == []

    def test_advancing_the_clock_fires_a_pending_reply_timeout(
        self, manual_clock
    ):
        inbox = Inbox(Fabric("clocked").open_port("waiter"))
        raised = []

        def wait():
            try:
                inbox.reply(1, timeout=30.0)
            except TransportTimeout as exc:
                raised.append(exc)

        waiter = threading.Thread(target=wait)
        waiter.start()
        while not manual_clock.waiting:  # the wait is under way
            time.sleep(0.001)
        start = time.monotonic()
        manual_clock.advance(30.0)
        waiter.join(5)
        assert time.monotonic() - start < 0.2
        assert [str(exc) for exc in raised] == [
            "timed out waiting for the reply to request 1"
        ]
