"""The client for the translation service.

:class:`AsyncServeClient` speaks the frames of
:mod:`repro.serve.protocol` over asyncio, pipelined: requests are
matched to responses by id, so many can be in flight on one
connection; the traffic generator uses this to put real concurrency
behind the admission controller.

A failed request raises the *typed* server error (:func:`decode_error`):
a shed request surfaces as :class:`~repro.errors.ServerOverloadedError`,
a poisoned tenant as :class:`~repro.errors.TenantQuarantinedError`, and
so on — callers branch on exception class, never on message text.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.errors import ProtocolError
from repro.serve.protocol import decode_error, read_frame, write_frame

__all__ = ["AsyncServeClient"]


class AsyncServeClient:
    """Pipelined asyncio client; see the module docstring."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._read_task: Optional[asyncio.Task] = None

    @classmethod
    async def connect(cls, socket_path: str) -> "AsyncServeClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_unix_connection(
            socket_path
        )
        client._read_task = asyncio.create_task(client._read_loop())
        return client

    async def _read_loop(self) -> None:
        error: BaseException = ProtocolError("server closed the connection")
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except BaseException as exc:  # noqa: BLE001 — fail all pending
            error = exc
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def call(self, op: str, **payload) -> dict:
        self._next_id += 1
        request = dict(payload, op=op, id=self._next_id)
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        async with self._write_lock:
            await write_frame(self._writer, request)
        response = await future
        if response.get("ok"):
            return response.get("result") or {}
        raise decode_error(response.get("error") or {})

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
