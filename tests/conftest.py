import importlib.util
import os
import signal
from types import SimpleNamespace

import pytest

from aexlab import adversary
from aexlab.isa import assemble
from aexlab.machine import (
    MODE_ENCLAVE, PERM_R, PERM_W, PERM_X, PRIVATE, PUBLIC, RIP, Machine,
    Memory, Page, TCS,
)
from aexlab.runtimes import EnclaveImage, Layout, Toggles

# the CLI runs in a subprocess, which finds the package in this checkout
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
# seconds a CLI subprocess, or a test that starts a worker pool in-process,
# may take: a stalled pool fails its test instead of hanging the suite
CLI_TIMEOUT = 600


@pytest.fixture
def deadline():
    """Raise TimeoutError in the test once it has run CLI_TIMEOUT seconds
    (SIGALRM; forked pool workers do not inherit the alarm)."""
    def expire(signum, frame):
        raise TimeoutError(f"test still running after {CLI_TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CLI_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def stub_pool_context(sizes: list, calls: list = None):
    """A stand-in for `multiprocessing.get_context`, which the search calls
    to start its pool: each pool records its size in `sizes` and computes
    its tasks in-process, from the search space the parent set before
    starting it, as a forked worker would see it.  `calls` gets each method
    call in order: ("map", number of tasks), ("close",), ("join",) and
    ("terminate",)."""
    calls = [] if calls is None else calls

    class Pool:
        def __init__(self, n):
            assert adversary._space is not None
            sizes.append(n)

        def map(self, fn, items):
            calls.append(("map", len(items)))
            return [fn(item) for item in items]

        def close(self):
            calls.append(("close",))

        def join(self):
            calls.append(("join",))

        def terminate(self):
            calls.append(("terminate",))

    return lambda method: SimpleNamespace(Pool=Pool)


def load_script(name: str):
    """The module of `scripts/<name>.py`, loaded from this checkout."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE = 0x1000
DATA = 0x20000
PUB = 0x40000


def make_raw_machine(source: str, symbols=None, nssa: int = 2,
                     data_secret=()):
    """A bare machine around a hand-written program: one code page, one
    private data page (doubles as stack), one public page.  The machine is
    already inside the enclave at the first instruction."""
    program = assemble(source, CODE, dict(symbols or {}, data=DATA, pub=PUB))
    pages = [
        Page(CODE, 0x1000, PRIVATE, PERM_R | PERM_X),
        Page(DATA, 0x1000, PRIVATE, PERM_R | PERM_W),
        Page(PUB, 0x1000, PUBLIC, PERM_R | PERM_W),
    ]
    mem = Memory(pages)
    for addr, value in dict(data_secret).items():
        mem.write(addr, value, True)
    tcs = TCS(entry_point=CODE, nssa=nssa, ssa_base=DATA + 0xF00)
    m = Machine(mem, tcs)
    m.mode = MODE_ENCLAVE
    m.tcs.busy = True
    m.regs[RIP] = CODE
    m.aep = PUB
    return m, program


def make_raw_image(program, stack_base=DATA + 0xF00) -> EnclaveImage:
    """Wrap a hand-written program in just enough image metadata for the
    detectors."""
    return EnclaveImage(
        variant="custom", layout=Layout(), toggles=Toggles(),
        program=program, stack_base=stack_base,
        trusted_stack_ranges=((DATA, DATA + 0x1000),),
        sp_windows=(), crit_ranges=(),
    )


@pytest.fixture(scope="session")
def sdk_image():
    from aexlab.runtimes import build_runtime
    return build_runtime("sdk_style")
