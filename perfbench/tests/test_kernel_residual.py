"""The kernel residual on a toy run of the real concurrency kernel.

Tasks run on their own threads with strict handoff; a span clock that
only the toy layers and the toy event advance makes the arithmetic exact:
every tick the layers add is charged to them, blocked time inside
``Kernel.serve`` is charged to nobody, and the ticks added outside any
span are exactly the residual.
"""

from repro.sim.clock import VirtualClock
from repro.sim.kernel import Kernel
from spans import SpanRecorder, breakdown

from test_spans import FakeNs

QUERY_NS, DEVICE_NS, EVENT_NS = 3, 7, 11


class Device:
    def __init__(self, ticks: FakeNs, clock: VirtualClock) -> None:
        self.ticks = ticks
        self.clock = clock

    def read(self) -> None:
        self.ticks.now += DEVICE_NS
        self.clock.consume("dev", 5.0)  # blocks the task in Kernel.serve


class Frontend:
    def __init__(self, ticks: FakeNs, device: Device) -> None:
        self.ticks = ticks
        self.device = device

    def query(self) -> None:
        self.ticks.now += QUERY_NS
        self.device.read()
        self.device.read()


def test_kernel_residual_is_what_no_layer_did():
    ticks = FakeNs()
    clock = VirtualClock()
    kernel = Kernel(clock)
    device = Device(ticks, clock)
    front = Frontend(ticks, device)
    rec = SpanRecorder(clock_ns=ticks)
    rec.wrap(front, "query", "front.query", root=True)
    rec.wrap(device, "read", "device.read")
    rec.wrap(kernel, "serve", "sim.kernel.serve")

    def kernel_work() -> None:
        ticks.now += EVENT_NS  # on the kernel's thread, outside any span

    tasks = 6
    for i in range(tasks):
        kernel.spawn(front.query, name=f"q{i}", at_us=float(i))
        kernel.at(float(i) + 0.5, kernel_work)
    try:
        kernel.run()
    finally:
        clock.bind_kernel(None)

    times, residual = breakdown(rec, wall_ns=ticks.now,
                                blocking=("sim.kernel.serve",))
    assert times["front.query"] == [tasks, QUERY_NS * tasks]
    assert times["device.read"] == [2 * tasks, DEVICE_NS * 2 * tasks]
    assert times["sim.kernel.serve"] == [2 * tasks, 0]
    assert residual == EVENT_NS * tasks
    # Each task recorded on its own thread's lane.
    assert len(rec.lanes) == tasks
