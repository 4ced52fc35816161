"""Anonymous pipes."""

from __future__ import annotations

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.vfs import FileObject
from repro.kernel.waitq import WaitQueue, wait_interruptible

PIPE_CAPACITY = 65536


class Pipe:
    """The shared buffer between a read end and a write end."""

    def __init__(self, kernel, name: str = "pipe"):
        self.kernel = kernel
        self.name = name
        self.buffer = bytearray()
        self.capacity = PIPE_CAPACITY
        self.readers = 0
        self.writers = 0
        self.dataq = WaitQueue("pipe-data")
        self.spaceq = WaitQueue("pipe-space")
        self.read_end = PipeEnd(self, "r")
        self.write_end = PipeEnd(self, "w")


class PipeEnd(FileObject):
    kind = "pipe"

    def __init__(self, pipe: Pipe, mode: str):
        super().__init__("%s:%s" % (pipe.name, mode))
        self.pipe = pipe
        self.mode = mode
        if mode == "r":
            pipe.readers += 1
        else:
            pipe.writers += 1

    def st_mode(self) -> int:
        return C.S_IFIFO | 0o600

    def on_last_close(self) -> None:
        pipe = self.pipe
        sim = pipe.kernel.sim
        if self.mode == "r":
            pipe.readers -= 1
            if pipe.readers == 0:
                # Writers now get EPIPE; wake them so they can see it.
                pipe.spaceq.notify_all(sim)
                pipe.write_end.pollq.notify_all(sim)
        else:
            pipe.writers -= 1
            if pipe.writers == 0:
                pipe.dataq.notify_all(sim)
                pipe.read_end.pollq.notify_all(sim)

    def poll_mask(self, kernel) -> int:
        pipe = self.pipe
        mask = 0
        if self.mode == "r":
            if pipe.buffer:
                mask |= C.POLLIN
            if pipe.writers == 0:
                mask |= C.POLLHUP
        else:
            if len(pipe.buffer) < pipe.capacity:
                mask |= C.POLLOUT
            if pipe.readers == 0:
                mask |= C.POLLERR
        return mask

    def readable_bytes(self, ofd) -> int:
        return len(self.pipe.buffer)

    def read(self, kernel, thread, ofd, count: int):
        if self.mode != "r":
            return -E.EBADF
        pipe = self.pipe
        while not pipe.buffer:
            if pipe.writers == 0:
                return b""
            if ofd.nonblocking:
                return -E.EAGAIN
            event = pipe.dataq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                pipe.dataq.unregister(event)
                return -E.EINTR
        chunk = bytes(pipe.buffer[:count])
        del pipe.buffer[: len(chunk)]
        pipe.spaceq.notify_all(kernel.sim)
        pipe.write_end.pollq.notify_all(kernel.sim)
        return chunk

    def write(self, kernel, thread, ofd, data: bytes):
        if self.mode != "w":
            return -E.EBADF
        pipe = self.pipe
        written = 0
        data = bytes(data)
        while written < len(data):
            if pipe.readers == 0:
                kernel.send_signal_to_thread(thread, C.SIGPIPE)
                return written if written else -E.EPIPE
            space = pipe.capacity - len(pipe.buffer)
            if space == 0:
                if ofd.nonblocking:
                    return written if written else -E.EAGAIN
                event = pipe.spaceq.register()
                status, _ = yield from wait_interruptible(thread, event)
                if status == "interrupted":
                    pipe.spaceq.unregister(event)
                    return written if written else -E.EINTR
                continue
            chunk = data[written : written + space]
            pipe.buffer += chunk
            written += len(chunk)
            pipe.dataq.notify_all(kernel.sim)
            pipe.read_end.pollq.notify_all(kernel.sim)
        return written
