"""Token servers and control-plane messages (paper §V-B2, B4, B5).

Every hypervisor runs a *token listening server* on a known port in dom0;
NAT redirects deliver token/location/capacity messages addressed to a VM to
its host's dom0.  The emulation keeps the real wire encodings (so sizes and
parsing are what the testbed would see) but delivers messages through an
in-process registry keyed by dom0 IP.

Message formats:

* **token** — the :class:`repro.core.token.Token` encoding (u32 ID + u8
  level per entry, §V-B2);
* **location request/response** (§V-B4) — a VM asks a peer VM's host for
  its dom0 address, enabling the communication-level lookup;
* **capacity request/response** (§V-B5) — the token holder probes a target
  hypervisor for free VM slots and available RAM.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.token import Token

#: Known dom0 control port (arbitrary but fixed, as in the deployment).
TOKEN_PORT = 52001

_IP = struct.Struct("!I")
_CAP_REQ = struct.Struct("!II")  # requester ip, vm ram_mb needed
_CAP_RESP = struct.Struct("!III")  # responder ip, free slots, free ram_mb


def _pack_ip(ip: str) -> int:
    return int(ipaddress.IPv4Address(ip))


def _unpack_ip(value: int) -> str:
    return str(ipaddress.IPv4Address(value))


@dataclass(frozen=True)
class LocationRequest:
    """Ask the hypervisor hosting ``target_vm_ip`` for its dom0 address."""

    requester_dom0_ip: str
    target_vm_ip: str

    def encode(self) -> bytes:
        return _IP.pack(_pack_ip(self.requester_dom0_ip)) + _IP.pack(
            _pack_ip(self.target_vm_ip)
        )

    @classmethod
    def decode(cls, payload: bytes) -> "LocationRequest":
        if len(payload) != 8:
            raise ValueError(f"location request must be 8 bytes, got {len(payload)}")
        requester, target = _IP.unpack_from(payload, 0)[0], _IP.unpack_from(payload, 4)[0]
        return cls(
            requester_dom0_ip=_unpack_ip(requester),
            target_vm_ip=_unpack_ip(target),
        )


@dataclass(frozen=True)
class LocationResponse:
    """The dom0 address hosting the requested VM."""

    vm_ip: str
    dom0_ip: str

    def encode(self) -> bytes:
        return _IP.pack(_pack_ip(self.vm_ip)) + _IP.pack(_pack_ip(self.dom0_ip))

    @classmethod
    def decode(cls, payload: bytes) -> "LocationResponse":
        if len(payload) != 8:
            raise ValueError(f"location response must be 8 bytes, got {len(payload)}")
        vm, dom0 = _IP.unpack_from(payload, 0)[0], _IP.unpack_from(payload, 4)[0]
        return cls(vm_ip=_unpack_ip(vm), dom0_ip=_unpack_ip(dom0))


@dataclass(frozen=True)
class CapacityRequest:
    """Probe a hypervisor: can you host a VM needing ``ram_mb``?"""

    requester_dom0_ip: str
    ram_mb: int

    def encode(self) -> bytes:
        return _CAP_REQ.pack(_pack_ip(self.requester_dom0_ip), self.ram_mb)

    @classmethod
    def decode(cls, payload: bytes) -> "CapacityRequest":
        if len(payload) != _CAP_REQ.size:
            raise ValueError(
                f"capacity request must be {_CAP_REQ.size} bytes, got {len(payload)}"
            )
        requester, ram = _CAP_REQ.unpack(payload)
        return cls(requester_dom0_ip=_unpack_ip(requester), ram_mb=ram)


@dataclass(frozen=True)
class CapacityResponse:
    """§V-B5: "how many more VMs it is able to host and the amount of RAM"."""

    responder_dom0_ip: str
    free_slots: int
    free_ram_mb: int

    def encode(self) -> bytes:
        return _CAP_RESP.pack(
            _pack_ip(self.responder_dom0_ip),
            max(0, self.free_slots),
            max(0, self.free_ram_mb),
        )

    @classmethod
    def decode(cls, payload: bytes) -> "CapacityResponse":
        if len(payload) != _CAP_RESP.size:
            raise ValueError(
                f"capacity response must be {_CAP_RESP.size} bytes, got {len(payload)}"
            )
        responder, slots, ram = _CAP_RESP.unpack(payload)
        return cls(
            responder_dom0_ip=_unpack_ip(responder),
            free_slots=slots,
            free_ram_mb=ram,
        )


class TokenServer:
    """One dom0's token listener: receives tokens, hands them to a handler."""

    def __init__(
        self,
        dom0_ip: str,
        on_token: Callable[[Token], Optional[str]],
    ) -> None:
        """``on_token`` processes a received token and returns the dom0 IP
        the token should be forwarded to next (or None to hold it)."""
        self._dom0_ip = dom0_ip
        self._on_token = on_token
        self.tokens_received = 0
        self.bytes_received = 0
        #: The token this dom0 last received, with whatever its handler
        #: wrote into it: the token it forwards.
        self.token: Optional[Token] = None

    @property
    def dom0_ip(self) -> str:
        """Address this server listens on."""
        return self._dom0_ip

    def receive(self, payload: bytes) -> Optional[str]:
        """Decode an incoming token message and invoke the handler."""
        self.token = token = Token.decode(payload)
        self.tokens_received += 1
        self.bytes_received += len(payload)
        return self._on_token(token)


class TokenLostError(Exception):
    """Raised when the network dropped the token in flight.

    The single-token design is the algorithm's availability weak point: a
    lost token halts all migration activity.  The deployment layer
    recovers by regenerating a fresh token (§V-A's centralized placement
    manager knows the full VM set), at the cost of losing the HLF level
    estimates accumulated so far.
    """

    def __init__(self, dest_dom0_ip: str) -> None:
        super().__init__(f"token lost on the way to {dest_dom0_ip}")
        self.dest_dom0_ip = dest_dom0_ip


class TokenNetwork:
    """In-process message fabric keyed by dom0 IP (replaces the NAT plumbing)."""

    def __init__(self) -> None:
        self._servers: Dict[str, TokenServer] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    def register(self, server: TokenServer) -> None:
        """Attach a token server at its dom0 address."""
        if server.dom0_ip in self._servers:
            raise ValueError(f"a server is already registered at {server.dom0_ip}")
        self._servers[server.dom0_ip] = server

    def server_at(self, dom0_ip: str) -> TokenServer:
        """The server registered at ``dom0_ip``."""
        return self._servers[dom0_ip]

    def send_token(self, token: Token, dest_dom0_ip: str) -> Optional[str]:
        """Deliver an encoded token to a dom0; returns the forward address."""
        payload = token.encode()
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        try:
            server = self._servers[dest_dom0_ip]
        except KeyError:
            raise KeyError(f"no token server registered at {dest_dom0_ip}")
        return server.receive(payload)

    def circulate(self, token: Token, start_dom0_ip: str, max_hops: int) -> int:
        """Keep forwarding the token until a handler holds it or hops run out.

        Each hop sends the token its previous holder received, as that
        holder's handler left it, so what a holder writes (HLF's round-end
        levels) travels on.  Returns the number of hops performed.
        """
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        dest: Optional[str] = start_dom0_ip
        hops = 0
        while dest is not None and hops < max_hops:
            holder = dest
            dest = self.send_token(token, holder)
            token = self._servers[holder].token
            hops += 1
        return hops


class LossyTokenNetwork(TokenNetwork):
    """A token network that drops messages with a fixed probability.

    Used by the fault-injection tests and the resilient-round logic: the
    real deployment's token travels over UDP-like NAT-redirected messages,
    so loss is a scenario the control plane must survive.
    """

    def __init__(self, drop_prob: float, seed=None) -> None:
        super().__init__()
        if not 0 <= drop_prob < 1:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        from repro.util.rng import make_rng

        self._drop_prob = drop_prob
        self._rng = make_rng(seed)
        self.drops = 0

    def send_token(self, token: Token, dest_dom0_ip: str) -> Optional[str]:
        if self._rng.random() < self._drop_prob:
            self.drops += 1
            raise TokenLostError(dest_dom0_ip)
        return super().send_token(token, dest_dom0_ip)
