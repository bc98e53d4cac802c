"""The window-manager module: owns the display, serves window requests.

Windows are fixed-size text grids.  Each window remembers the NTCS
address of the module that created it; user input (injected by the
hosting workstation — here, by :meth:`inject_input`) is forwarded to
that owner as a connectionless ``wm_input`` event, and windows whose
owner's circuit dies are garbage-collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.commod import Address, ComMod, IncomingMessage
from repro.util.idgen import SequenceGenerator

WM_NAME = "drts.windows"

MAX_WIDTH = 200
MAX_HEIGHT = 100


@dataclass
class Window:
    window_id: int
    title: str
    width: int
    height: int
    owner: Address
    rows: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.rows:
            self.rows = [""] * self.height

    def write(self, row: int, text: str) -> bool:
        """Replace one row (clipped to the window width); False if out of range."""
        if not 0 <= row < self.height:
            return False
        self.rows[row] = text[: self.width]
        return True

    def render(self) -> str:
        """The window contents as a newline-joined string."""
        return "\n".join(self.rows)


class WindowManager:
    """The display server: an ordinary NTCS module."""

    def __init__(self, commod: ComMod, name: str = WM_NAME,
                 register: bool = True):
        self.commod = commod
        self.name = name
        self.windows: Dict[int, Window] = {}
        self._ids = SequenceGenerator()
        self.inputs_forwarded = 0
        self.inputs_dropped = 0
        if register:
            commod.ali.register(name, attrs={"kind": "windows"})
        commod.ali.set_request_handler(self._on_request)

    @classmethod
    def attach(cls, commod: ComMod, name: str = WM_NAME) -> "WindowManager":
        """Bind a fresh (empty) manager to an existing ComMod without
        registering — for relocation rebuild callbacks, where the
        process controller performs the registration itself."""
        return cls(commod, name=name, register=False)

    # -- request handling -----------------------------------------------------

    def _on_request(self, request: IncomingMessage) -> None:
        handler = {
            "wm_create": self._handle_create,
            "wm_write": self._handle_write,
            "wm_snapshot": self._handle_snapshot,
            "wm_close": self._handle_close,
            "wm_list": self._handle_list,
        }.get(request.type_name)
        if handler is not None:
            handler(request)

    def _handle_create(self, request: IncomingMessage) -> None:
        width = request.values["width"]
        height = request.values["height"]
        if not (0 < width <= MAX_WIDTH and 0 < height <= MAX_HEIGHT):
            if request.reply_expected:
                self.commod.ali.reply(request, "wm_created", {
                    "ok": 0, "window_id": 0,
                    "detail": f"bad geometry {width}x{height}",
                })
            return
        window = Window(
            window_id=self._ids.next(),
            title=request.values["title"],
            width=width,
            height=height,
            owner=request.src,
        )
        self.windows[window.window_id] = window
        if request.reply_expected:
            self.commod.ali.reply(request, "wm_created", {
                "ok": 1, "window_id": window.window_id, "detail": "",
            })

    def _window_for(self, request: IncomingMessage) -> Optional[Window]:
        window = self.windows.get(request.values["window_id"])
        if window is None or window.owner != request.src:
            return None  # unknown, or not yours
        return window

    def _handle_write(self, request: IncomingMessage) -> None:
        window = self._window_for(request)
        ok = False
        detail = "no such window (or not the owner)"
        if window is not None:
            text = request.values["text"].decode("ascii", errors="replace")
            ok = window.write(request.values["row"], text)
            detail = "" if ok else f"row out of range 0..{window.height - 1}"
        if request.reply_expected:
            self.commod.ali.reply(request, "wm_ack", {
                "ok": 1 if ok else 0, "detail": detail,
            })

    def _handle_snapshot(self, request: IncomingMessage) -> None:
        # Snapshots are not owner-restricted: the workstation operator
        # can look at anything.
        window = self.windows.get(request.values["window_id"])
        if not request.reply_expected:
            return
        if window is None:
            self.commod.ali.reply(request, "wm_contents", {
                "ok": 0, "window_id": request.values["window_id"],
                "title": "", "rows": b"",
            })
            return
        self.commod.ali.reply(request, "wm_contents", {
            "ok": 1, "window_id": window.window_id,
            "title": window.title,
            "rows": window.render().encode("ascii", errors="replace"),
        })

    def _handle_close(self, request: IncomingMessage) -> None:
        window = self._window_for(request)
        if window is not None:
            del self.windows[window.window_id]
        if request.reply_expected:
            self.commod.ali.reply(request, "wm_ack", {
                "ok": 1 if window is not None else 0,
                "detail": "" if window is not None else "no such window",
            })

    def _handle_list(self, request: IncomingMessage) -> None:
        if not request.reply_expected:
            return
        titles = "\n".join(
            f"{w.window_id}:{w.title}"
            for w in sorted(self.windows.values(),
                            key=lambda w: w.window_id)
        )
        self.commod.ali.reply(request, "wm_list_reply", {
            "count": len(self.windows),
            "titles": titles.encode("ascii", errors="replace"),
        })

    # -- the workstation side ---------------------------------------------------

    def inject_input(self, window_id: int, text: str) -> bool:
        """Simulate the user typing into a window: the event is
        forwarded to the owning module, connectionless."""
        window = self.windows.get(window_id)
        if window is None:
            return False
        ok = self.commod.nucleus.lcm.datagram(window.owner, "wm_input", {
            "window_id": window_id,
            "text": text.encode("ascii", errors="replace"),
        })
        if ok:
            self.inputs_forwarded += 1
        else:
            self.inputs_dropped += 1
        return ok
