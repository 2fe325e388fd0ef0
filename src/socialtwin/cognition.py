"""Cognitive engine layer: prompts in, behavior vectors out.

Three interchangeable engines sit behind one interface:

* ``remote-http`` posts prompts to a hosted model endpoint (adapter shape is
  configurable, so any JSON chat API fits);
* ``synthetic-oracle`` computes logistic responses from persona attributes
  and policy stringency, giving tests a ground-truth engine with known
  monotonicity;
* ``replay-cache`` serves previously recorded responses only and errors on
  any miss, for hermetic re-runs.

Every response, whatever its source, flows through the same JSON parsing and
validation; parsed rows are cached on disk under the SHA-256 hex digest of
(engine digest, prompt text, category list), so a populated cache replays a
full run byte-for-byte. Cache records are JSON lines of four fields, ``key``,
``row``, ``raw`` and ``crc``, in that order, each appended with one write.
``row`` is the parsed probabilities in response-key order, packed as
little-endian doubles and written in hex; ``crc`` is the CRC-32 of the bytes
before it. Opening a cache indexes the lines by the key at its fixed offset;
a lookup checks a record's CRC and unpacks its row on first use, so a
corrupt record fails when it is first used, not at open, and never yields a
wrong row. A line of any other layout is not a cache record.

The ``remote-http`` engine speaks HTTP through the standard library's
``http.client``, loaded on its first request. It opens one connection per
request, reads the proxy and netrc settings once per engine, verifies
TLS against the system trust store (``SSL_CERT_FILE`` applies,
``REQUESTS_CA_BUNDLE`` does not), follows no redirect, and decodes the body
with the ``Content-Type`` charset, else UTF-8.
"""

from __future__ import annotations

import base64
import binascii
import datetime as dt
import fcntl
import functools
import hashlib
import json
import math
import os
import re
import string
import struct
import threading
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable
from urllib.parse import unquote, urlsplit

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, EngineError, ParseError
from .persona import Persona
from .schema import CategorySchema

VALUE_SLACK = 0.001  # values within this margin outside [0, 1] are clamped


@dataclass(frozen=True)
class SimContext:
    """The situational half of a prompt: date and policy stringency."""

    date: dt.date
    stringency: float

    def __post_init__(self):
        if not 0.0 <= self.stringency <= 100.0:
            raise ConfigError(f"stringency must be in [0, 100], got {self.stringency}")


@dataclass(frozen=True)
class PromptText:
    """A fully rendered prompt."""

    text: str


@functools.lru_cache(maxsize=32)
def parse_template(template: str) -> tuple[tuple[str, str | None], ...]:
    """(literal, placeholder name or None) pairs of a template, parsed once
    per template text; a placeholder that does not parse, or is not a plain
    name, is a ConfigError."""
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:  # a lone brace
        raise ConfigError(f"template does not parse: {exc}") from None
    for literal, field_name, format_spec, conversion in parsed:
        if field_name is not None and (field_name == "" or format_spec or conversion):
            raise ConfigError(
                f"template placeholder {{{field_name}{'!' + conversion if conversion else ''}"
                f"{':' + format_spec if format_spec else ''}}} is not a plain name"
            )
    return tuple((literal, field_name) for literal, field_name, _, _ in parsed)


_SLOTS = ("date", "stringency")  # the context fields; a skeleton leaves them open


def _escaped(text: str) -> str:
    """``text`` as a JSON string body: ASCII, without its quotes. Escaping
    goes one character at a time, so escaping pieces and joining them gives
    the escape of the joined text."""
    return encode_basestring_ascii(text)[1:-1]


@dataclass(frozen=True)
class PromptSkeleton:
    """A template filled in for one persona, with the context left open.

    ``slots`` names the ``date`` and ``stringency`` fields in template
    order; ``constants`` holds the text around them, one more piece than
    there are slots, with adjacent constant text merged. Every persona gets
    the same slots from a template.
    """

    constants: tuple[str, ...]
    slots: tuple[str, ...]

    def values(self, context: SimContext) -> list[str]:
        """The slot values of ``context``: the date in ISO format, the
        stringency trailing-zero-free. Both are ASCII with nothing that JSON
        escapes, so they fill a keyed skeleton as they are."""
        fields = {"date": context.date.isoformat(), "stringency": format(context.stringency, "g")}
        return [fields[slot] for slot in self.slots]

    def fill(self, values: list[str]) -> str:
        """The text with ``values[i]`` in ``slots[i]``."""
        parts = [""] * (2 * len(self.constants) - 1)
        parts[::2] = self.constants
        parts[1::2] = values
        return "".join(parts)

    def keyed(self, engine_digest: str, response_keys: tuple[str, ...]) -> PromptSkeleton:
        """The skeleton of this prompt's cache-key payload for an engine and
        a list of response keys: the key affixes around the JSON-escaped
        constants, with the same slots. ``skeleton_key`` hashes it filled."""
        constants = [_escaped(c) for c in self.constants]
        constants[0] = _key_prefix(engine_digest) + constants[0]
        constants[-1] += _key_suffix(response_keys)
        return PromptSkeleton(tuple(constants), self.slots)


def skeleton_key(keyed: PromptSkeleton, values: list[str]) -> str:
    """The cache key of a keyed skeleton (``PromptSkeleton.keyed``) with
    ``values`` in its slots: ``ResponseCache.make_key`` of the prompt."""
    return hashlib.sha256(keyed.fill(values).encode("ascii")).hexdigest()


@functools.lru_cache(maxsize=4096)
def _skeleton(template: str, attributes: tuple[tuple[str, str], ...]) -> PromptSkeleton:
    persona = dict(attributes)
    constants, slots = [""], []
    for literal, name in parse_template(template):
        constants[-1] += literal
        if name is None:
            continue
        if name in _SLOTS:
            slots.append(name)
            constants.append("")
        elif name in persona:
            constants[-1] += persona[name]
        elif name == "persona_block":
            constants[-1] += "\n".join(f"- {attr}: {value}" for attr, value in attributes)
        else:
            raise ConfigError(
                f"template placeholder {{{name}}} has no matching persona attribute or context field"
            )
    return PromptSkeleton(tuple(constants), tuple(slots))


def prompt_skeleton(persona: Persona, template: str) -> PromptSkeleton:
    """The ``template`` filled in for ``persona``, built once per template
    and profile (the ordered attributes).

    A placeholder resolves to, in order of precedence: ``date`` or
    ``stringency`` (a slot), a persona attribute, or ``persona_block``
    (bulleted attribute list, for generic templates). An unresolved
    placeholder is a ConfigError naming the field, never a silent
    passthrough.
    """
    return _skeleton(template, tuple(persona.attributes.items()))


def render_prompt(persona: Persona, context: SimContext, template: str) -> PromptText:
    """Substitute ``{placeholder}`` fields from persona attributes and context.

    The text is the persona's skeleton (``prompt_skeleton``) filled with
    the context's date (ISO format) and stringency (trailing-zero-free). A
    simulation pass keys every cell from its skeleton and renders only the
    cells it sends to the engine.
    """
    skeleton = prompt_skeleton(persona, template)
    return PromptText(text=skeleton.fill(skeleton.values(context)))


_DECODER = json.JSONDecoder()


def _first_json_object(raw: str) -> dict:
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _ = _DECODER.raw_decode(raw, idx)
        except json.JSONDecodeError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = raw.find("{", idx + 1)
    raise ParseError(f"no JSON object found in response: {raw[:200]!r}")


def parse_response(raw: str, categories: CategorySchema) -> list[float]:
    """The row of probabilities, in category order, of the first JSON object
    in an engine response.

    Engines wrap JSON in prose or markdown fences, so the scan starts at each
    ``{`` until a decodable object is found. All configured response keys must
    be present with numeric values; values within 0.001 outside [0, 1] are
    clamped, anything further out is an error.
    """
    obj = _first_json_object(raw)
    row: list[float] = []
    for cat in categories:
        value = obj.get(cat.response_key)
        if type(value) is float and 0.0 < value <= 1.0:  # the common case, as it is
            row.append(value)
            continue
        if cat.response_key not in obj:
            raise ParseError(f"response missing key {cat.response_key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(
                f"response key {cat.response_key!r} has non-numeric value {value!r}"
            )
        value = float(value)
        if math.isnan(value) or value < -VALUE_SLACK or value > 1.0 + VALUE_SLACK:
            raise ParseError(
                f"response key {cat.response_key!r} value {value} outside "
                f"[-{VALUE_SLACK}, {1 + VALUE_SLACK}]"
            )
        row.append(min(1.0, max(0.0, value)))
    return row


# ---------------------------------------------------------------------------
# Synthetic oracle
# ---------------------------------------------------------------------------


def logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True)
class OracleParams:
    """Ground-truth response surface for the synthetic oracle.

    Per category: an intercept and a stringency slope (the slope's sign fixes
    the response direction). Attribute offsets are shared across categories
    and shift the logistic argument per persona. With noise_scale 0 the
    oracle is fully deterministic and strictly monotone in stringency.
    """

    intercepts: dict[str, float]
    slopes: dict[str, float]
    attribute_offsets: dict[str, dict[str, float]] = field(default_factory=dict)
    noise_scale: float = 0.0

    def __post_init__(self):
        if set(self.intercepts) != set(self.slopes):
            raise ConfigError(
                f"oracle intercepts and slopes must cover the same categories: "
                f"{sorted(self.intercepts)} vs {sorted(self.slopes)}"
            )

    def validate_directions(self, schema: CategorySchema) -> None:
        """Check slope signs against the schema's configured directions."""
        for cat in schema:
            slope = self.slopes.get(cat.key)
            if slope is None:
                raise ConfigError(f"oracle params missing category {cat.key!r}")
            if slope == 0 or (1 if slope > 0 else -1) != cat.direction:
                raise ConfigError(
                    f"oracle slope for {cat.key!r} is {slope}, expected sign {cat.direction:+d}"
                )

    def digest(self) -> str:
        payload = json.dumps(
            {
                "intercepts": self.intercepts,
                "slopes": self.slopes,
                "attribute_offsets": self.attribute_offsets,
                "noise_scale": self.noise_scale,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _offset_sum(params: OracleParams, persona: Persona) -> float:
    total = 0.0
    for attr, value in persona.attributes.items():
        total += params.attribute_offsets.get(attr, {}).get(value, 0.0)
    return total


def _oracle_probs(
    params: OracleParams, persona: Persona, context: SimContext, params_digest: str
) -> dict[str, float]:
    """prob_k = logistic(a_k + b_k * stringency/100 + attribute offsets + noise),
    by category key in ``intercepts`` order.

    Noise is seeded from (params, persona attributes, context), never from
    the persona id, so two personas with identical attributes get identical
    responses; that keeps the oracle consistent with prompt-keyed caching.
    ``params_digest`` is ``params.digest()``, which seeds the noise.
    """
    offsets = _offset_sum(params, persona)
    s = context.stringency / 100.0
    if params.noise_scale > 0:
        seed_payload = json.dumps(
            [
                params_digest,
                sorted(persona.attributes.items()),
                context.date.isoformat(),
                context.stringency,
            ]
        )
        seed = int.from_bytes(
            hashlib.sha256(seed_payload.encode("utf-8")).digest()[:8], "big"
        )
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, params.noise_scale, len(params.intercepts)).tolist()
    else:
        noise = [0.0] * len(params.intercepts)
    slopes = params.slopes
    return {
        key: logistic(a + slopes[key] * s + offsets + e)
        for (key, a), e in zip(params.intercepts.items(), noise)
    }


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

ENGINE_KINDS = ("remote-http", "synthetic-oracle", "replay-cache")


def _check_endpoint(endpoint) -> None:
    """An endpoint is an ``http`` or ``https`` URL with a host and a valid port."""
    try:
        url = urlsplit(endpoint)
        url.port  # raises ValueError for a port that is not a number in 0-65535
        valid = url.scheme in ("http", "https") and bool(url.hostname)
    except (AttributeError, ValueError):  # AttributeError: not a string
        valid = False
    if not valid:
        raise ConfigError(
            f"engine endpoint {endpoint!r} must be an http:// or https:// URL with a host"
        )


# a URL's scheme and "//", then its userinfo: all of the authority up to its last "@"
_USERINFO = re.compile(r"^((?:[A-Za-z][A-Za-z0-9+.-]*:)?//)[^/?#]*@")


def without_userinfo(endpoint):
    """``endpoint`` with any ``user:password@`` taken out of its URL; any
    other value, a URL without userinfo included, comes back as given."""
    return _USERINFO.sub(r"\1", endpoint, count=1) if isinstance(endpoint, str) else endpoint


@dataclass(frozen=True)
class EngineConfig:
    """Which engine to run and how; decoding params are provenance, recorded
    in run manifests."""

    kind: str
    endpoint: str | None = None
    model_name: str | None = None
    retry_limit: int = 3
    oracle_params: OracleParams | None = None
    decoding: dict = field(default_factory=dict)
    request_fields: dict = field(
        default_factory=lambda: {"model": "model", "prompt": "prompt"}
    )
    response_text_path: str | None = None
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ConfigError(f"unknown engine kind {self.kind!r}; expected one of {ENGINE_KINDS}")
        if self.kind == "remote-http":
            if not self.endpoint or not self.model_name:
                raise ConfigError("remote-http engine requires endpoint and model_name")
            _check_endpoint(self.endpoint)
        if self.kind == "synthetic-oracle" and self.oracle_params is None:
            raise ConfigError("synthetic-oracle engine requires oracle_params")

    def engine_digest(self) -> str:
        """The identity folded into cache keys: model name or oracle digest."""
        if self.oracle_params is not None:
            return f"oracle:{self.oracle_params.digest()}"
        if self.model_name:
            return f"model:{self.model_name}"
        raise ConfigError(f"{self.kind} engine has no model_name or oracle_params to key the cache")


class SyntheticOracleEngine:
    """Deterministic engine that emits the oracle's vector as a JSON string.

    The reply is ``json.dumps({response_key: probability})`` in schema
    order, encoded without ``json.dumps``: the engine fills a text made once
    from its response keys, where a key that two categories share keeps its
    first place and the later category's value, as in a dict.
    """

    replay_only = False

    def __init__(self, config: EngineConfig, schema: CategorySchema):
        params = config.oracle_params
        assert params is not None
        params.validate_directions(schema)
        self.params = params
        self.digest = config.engine_digest()
        self.retry_limit = config.retry_limit
        self.call_count = 0
        self._count_lock = threading.Lock()  # respond runs on worker threads
        self._params_digest = params.digest()
        self._reply_fields = {c.response_key: c.key for c in schema}
        self._reply = "{%s}" % ", ".join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %r" for k in self._reply_fields
        )

    def respond(self, prompt: PromptText, persona: Persona, context: SimContext) -> str:
        with self._count_lock:
            self.call_count += 1
        probs = _oracle_probs(self.params, persona, context, self._params_digest)
        values = tuple([probs[k] for k in self._reply_fields.values()])
        if math.isnan(sum(values)):  # json.dumps spells NaN its own way
            return json.dumps(dict(zip(self._reply_fields, values)))
        return self._reply % values


def walk_response_path(node, path: str):
    """Follow a dot-separated path through nested JSON; integer segments
    index lists."""
    for segment in path.split("."):
        try:
            node = node[int(segment)] if segment.lstrip("-").isdigit() else node[segment]
        except (KeyError, IndexError, TypeError):
            raise EngineError(
                f"response path {path!r} failed at segment {segment!r}"
            ) from None
    return node


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """(login, password) for ``host`` from ``$NETRC``, else ``~/.netrc`` or
    ``~/_netrc``; an unreadable or malformed file gives none."""
    import netrc

    path = os.environ.get("NETRC")
    for candidate in [path] if path is not None else ["~/.netrc", "~/_netrc"]:
        candidate = os.path.expanduser(candidate)
        if not os.path.exists(candidate):
            continue
        try:
            entry = netrc.netrc(candidate).authenticators(host)
        except (netrc.NetrcParseError, OSError):
            return None
        if entry is None:
            return None
        login, account, password = entry
        return login or account, password
    return None


@dataclass(frozen=True)
class _Route:
    """How every POST reaches the endpoint: the connection to open, the
    request target and the headers."""

    connect: Callable[[], object]
    target: str
    headers: dict[str, str]


def _resolve_route(endpoint: str, timeout: float) -> _Route:
    """Read the proxy and netrc settings for ``endpoint`` and fix its route."""
    import http.client
    import ssl
    import urllib.request

    url = urlsplit(endpoint)
    netloc = url.netloc.rpartition("@")[2]
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    headers = {
        "Content-Type": "application/json",
        "User-Agent": f"socialtwin/{__version__}",
        "Connection": "close",
    }
    auth = _netrc_auth(url.hostname)
    if auth is None and url.password is not None:
        auth = unquote(url.username), unquote(url.password)
    if auth is not None:
        headers["Authorization"] = _basic_auth(*auth)

    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass_environment(netloc, proxies):
        proxy = None
    host, port, proxy_headers = url.hostname, url.port, {}
    if proxy:
        proxy_url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if proxy_url.scheme != "http" or not proxy_url.hostname:
            raise EngineError(
                f"proxy for {url.scheme} must be an http:// URL with a host, "
                f"got scheme {proxy_url.scheme!r}"
            )
        host, port = proxy_url.hostname, proxy_url.port
        if proxy_url.password is not None:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                unquote(proxy_url.username), unquote(proxy_url.password)
            )

    if url.scheme == "http":
        if proxy:  # the proxy forwards an absolute-form target
            target = f"http://{netloc}{target}"
            headers.update(proxy_headers)
        return _Route(lambda: http.client.HTTPConnection(host, port, timeout=timeout), target, headers)

    context = ssl.create_default_context()

    def connect():
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
        if proxy:  # TLS to the endpoint inside a CONNECT tunnel
            conn.set_tunnel(url.hostname, url.port, proxy_headers)
        return conn

    return _Route(connect, target, headers)


class RemoteHttpEngine:
    """POSTs the prompt to a hosted model endpoint and returns the text body.

    The request body is {model_field: model_name, prompt_field: text, plus
    decoding params}; the response text is taken from ``response_text_path``
    (dot-separated, integer segments index lists) or the raw body when the
    path is unset. Transport errors are retried by the query layer.

    The transport is ``http.client``. Each POST opens its own connection,
    sends ``Connection: close``, reads the whole reply and closes the
    connection, so no socket outlives a call and the transport never resends
    a POST.

    On the first connection the engine reads, once, ``http_proxy``,
    ``https_proxy``, ``all_proxy`` and ``no_proxy``, and the ``$NETRC`` or
    ``~/.netrc`` entry for the endpoint's host. Plain HTTP goes through a
    proxy with an absolute-form request target, HTTPS through a CONNECT
    tunnel; only ``http://`` proxies are supported. The netrc credentials,
    else userinfo in the endpoint URL, are sent as Basic auth. HTTPS
    verifies the certificate against the system trust store, where
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` apply and ``REQUESTS_CA_BUNDLE``
    does not. ``timeout`` bounds the connect and each read. Redirects are
    not followed: any status of 300 or more is an EngineError, as are a
    transport failure and a body that cannot be decoded (with the
    ``Content-Type`` charset, else UTF-8) or, when ``response_text_path``
    is set, is not JSON.
    """

    replay_only = False

    def __init__(self, config: EngineConfig):
        self.config = config
        self.digest = config.engine_digest()
        self.retry_limit = config.retry_limit
        self.call_count = 0
        self._lock = threading.Lock()  # respond runs on worker threads
        self._route: _Route | None = None  # resolved on the first connection
        self._shown = without_userinfo(config.endpoint)  # for error messages

    def respond(self, prompt: PromptText, persona: Persona, context: SimContext) -> str:
        import http.client

        with self._lock:
            self.call_count += 1
        cfg = self.config
        body = {
            cfg.request_fields.get("model", "model"): cfg.model_name,
            cfg.request_fields.get("prompt", "prompt"): prompt.text,
        }
        body.update(cfg.decoding)
        try:
            text = self._post(json.dumps(body, allow_nan=False).encode("utf-8"))
            if cfg.response_text_path is None:
                return text
            payload = json.loads(text)
        except (OSError, http.client.HTTPException, ValueError, LookupError) as exc:
            # ValueError: a body that does not decode or is not JSON;
            # LookupError: an unknown charset
            raise EngineError(f"engine request to {self._shown} failed: {exc}") from exc
        return str(walk_response_path(payload, cfg.response_text_path))

    def _post(self, body: bytes) -> str:
        """POST ``body`` on a new connection, closed once the reply is read;
        the decoded reply."""
        with self._lock:
            if self._route is None:
                self._route = _resolve_route(self.config.endpoint, self.config.timeout)
            route = self._route
        conn = route.connect()
        try:
            conn.request("POST", route.target, body, route.headers)
            reply = conn.getresponse()
            data = reply.read()
        finally:
            conn.close()
        if reply.status >= 300:
            raise EngineError(
                f"engine request to {self._shown} failed: HTTP {reply.status} {reply.reason}"
            )
        return data.decode(reply.msg.get_content_charset("utf-8"))


class ReplayEngine:
    """Never contacts anything: every query must be served from the cache."""

    replay_only = True

    def __init__(self, config: EngineConfig):
        self.digest = config.engine_digest()
        self.retry_limit = config.retry_limit
        self.call_count = 0

    def respond(self, prompt: PromptText, persona: Persona, context: SimContext) -> str:
        raise EngineError(
            f"replay-cache engine queried for persona {persona.id}; "
            "populate the cache first or switch engine kind"
        )


def build_engine(config: EngineConfig, schema: CategorySchema):
    if config.kind == "synthetic-oracle":
        return SyntheticOracleEngine(config, schema)
    if config.kind == "remote-http":
        return RemoteHttpEngine(config)
    return ReplayEngine(config)


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


# A cache key is the sha256 of json.dumps([engine digest, prompt text,
# response keys]); these are the parts of that text before and after the
# prompt's escaped characters.
@functools.lru_cache(maxsize=64)
def _key_prefix(engine_digest: str) -> str:
    return "[" + encode_basestring_ascii(engine_digest) + ', "'


@functools.lru_cache(maxsize=64)
def _key_suffix(response_keys: tuple[str, ...]) -> str:
    return '", ' + json.dumps(list(response_keys)) + "]"


# a cache key: the SHA-256 hex digest that make_key and skeleton_key give
_KEY = re.compile(r"[0-9a-f]{64}")
# every record starts with the same head, {"key": "<64 hex digits>", "row": "
_KEY_FIELD = b'{"key": "'
_ROW_FIELD = b'", "row": "'
_KEY_START = len(_KEY_FIELD)
_KEY_END = _KEY_START + 64
_HEAD = _KEY_END + len(_ROW_FIELD)
# the text of a record after its row, and before its CRC
_RAW_FIELD = b'", "raw": "'
_CRC_FIELD = b', "crc": "'
# a record line ends in its CRC field, eight hex digits, '"}' and a newline
_CRC_END = len(b'00000000"}\n')
_CRC_TAIL = len(_CRC_FIELD) + _CRC_END


@functools.lru_cache(maxsize=16)
def _packing(n: int) -> struct.Struct:
    """A row of ``n`` probabilities as little-endian doubles."""
    return struct.Struct(f"<{n}d")


def _record_line(key: str, raw: str, row: list[float]) -> bytes:
    """The record of ``raw`` and its ``row`` under the hex digest ``key``,
    as ASCII bytes: ``{"key": "K", "row": "R", "raw": T, "crc": "C"}`` and a
    newline. ``T`` is escaped as ``json.dumps`` escapes it; ``R`` is the row
    packed as little-endian doubles, in lowercase hex; ``C`` is the CRC-32
    of every byte before ``, "crc"``, as eight lowercase hex digits."""
    packed = _packing(len(row)).pack(*row).hex()
    body = f'{{"key": "{key}", "row": "{packed}", "raw": {encode_basestring_ascii(raw)}'.encode("ascii")
    return body + b'%s%08x"}\n' % (_CRC_FIELD, zlib.crc32(body))


def _unpacked_row(line: bytes, n: int) -> list[float] | None:
    """The row of the record ``line`` (``_record_line``'s layout, whose head
    the open checked), or None unless the line ends in the CRC of the bytes
    before its CRC field, holds ``n`` values right before ``raw`` and every
    value is in [0, 1]."""
    end = _HEAD + 16 * n
    if (
        line[-_CRC_TAIL:-_CRC_END] != _CRC_FIELD
        or line[-3:] != b'"}\n'
        or b"%08x" % zlib.crc32(line[:-_CRC_TAIL]) != line[-_CRC_END:-3]
        or line[end:end + len(_RAW_FIELD)] != _RAW_FIELD
    ):
        return None
    try:
        row = _packing(n).unpack(binascii.a2b_hex(line[_HEAD:end]))
    except binascii.Error:  # not hex
        return None
    for value in row:
        if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
            return None
    return list(row)


class ResponseCache:
    """Append-safe store of raw responses and their rows of probabilities.

    A key is a SHA-256 hex digest, 64 lowercase hex digits (``make_key``);
    ``put`` refuses any other with a ValueError. On-disk format is
    line-delimited JSON, one record per line (the last record read for a
    key wins). ``put`` writes ``key``, ``row``, ``raw`` and ``crc`` in that
    order (``_record_line``), so every record starts with the same 84-byte
    head, ``{"key": "<key>", "row": "``. ``row`` holds the probabilities in
    response-key order, the order the key hashes, packed as little-endian
    doubles in hex. ``crc`` is the CRC-32 of every byte before ``, "crc"``.
    The key already hashes the engine digest, and a record holds nothing
    that changes from run to run, so two runs that append the same records
    write the same bytes.

    Opening the file indexes each line by the key at its fixed offset,
    without decoding it; a line without that head is not a cache record
    and fails when the cache opens, unless it is a torn last line (below).
    That refuses the ``probs`` mapping that earlier versions wrote; they
    likewise refuse a record of this layout, never serving a wrong row from
    it. The first ``get`` of a key checks the record's CRC and row length,
    unpacks the row and checks that each value is in [0, 1]; it then keeps
    only the row. Any failure is a DataError naming the file and line, so a
    corrupt record is found on its first use, not at open, and never serves
    a wrong row.

    An incomplete last line, which a crash mid-append leaves, is skipped and
    counted. Each ``put`` appends its record in one write(2) on an
    unbuffered ``O_APPEND`` file (opened for reading too, to check the tail)
    under an exclusive ``flock``; ``close`` (or leaving a ``with`` block)
    releases the file. Processes that append to one local file therefore
    never interleave records, and none sees another's record half written.
    Under the lock, the first ``put`` cuts the torn line off only while it
    is still the file's last bytes, at the offset the open saw; otherwise it
    appends after whatever another writer left, with a newline first unless
    the file already ends in one. Cutting only what is still the tail keeps
    the records that other caches opened on the same file appended since
    (see Pillai et al., "All File Systems Are Not Created Equal", OSDI
    2014). A cache file that cannot be opened is a DataError naming it. A
    ``path`` of None keeps the cache purely in memory.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        # key -> row; until its first get, (line number, line bytes)
        self._entries: dict[str, list[float] | tuple[int, bytes]] = {}
        self._fh = None
        self._torn = b""  # the torn last line the open skipped
        self._end = 0  # and where it starts
        self.hits = 0
        self.misses = 0
        self.skipped_lines = 0
        if self.path is not None:
            self._load()

    def _load(self) -> None:
        entries = self._entries
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:  # the first put creates it
            return
        except OSError as exc:
            raise DataError(f"{self.path}: cannot open the response cache: {exc.strerror}") from None
        with fh:
            for number, line in enumerate(fh, 1):
                if line.startswith(_ROW_FIELD, _KEY_END) and line.startswith(_KEY_FIELD):
                    # any bytes decode: a damaged key fails its CRC on first get
                    key = line[_KEY_START:_KEY_END].decode("latin-1")
                    if line.endswith(b"\n"):
                        entries[key] = (number, line)
                        continue
                    if line[1 - _CRC_TAIL:1 - _CRC_END] == _CRC_FIELD and line.endswith(b'"}'):
                        # a whole record of the current layout, unterminated
                        entries[key] = (number, line + b"\n")
                        continue
                if line.strip():
                    # only the last line can lack its newline
                    if line.endswith(b"\n"):
                        raise DataError(f"{self.path}:{number}: not a cache record")
                    self.skipped_lines = 1
                    self._torn = line
                    self._end = fh.tell() - len(line)

    @staticmethod
    def make_key(engine_digest: str, prompt_text: str, response_keys: tuple[str, ...]) -> str:
        """sha256 of ``json.dumps([engine_digest, prompt_text, list(response_keys)])``:
        the key of a skeleton that is all constant text. A simulation pass
        keys its cells from their skeletons (``PromptSkeleton.keyed``)
        instead, and never renders a cache hit's prompt."""
        return skeleton_key(PromptSkeleton((prompt_text,), ()).keyed(engine_digest, response_keys), [])

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def get(self, key: str, categories: CategorySchema) -> list[float] | None:
        """The probabilities stored under ``key``, in the order of
        ``categories`` (the schema whose response keys ``key`` hashes), or
        None on a miss."""
        with self._lock:
            row = self._entries.get(key)
            if row is None:
                self.misses += 1
                return None
            if type(row) is not list:
                number, line = row
                row = _unpacked_row(line, len(categories))
                if row is None:
                    raise DataError(f"{self.path}:{number}: not a cache record")
                self._entries[key] = row
            self.hits += 1
        return row

    def put(self, key: str, raw: str, row: list[float]) -> None:
        """Store ``raw`` and its probabilities, in response-key order (floats
        in [0, 1], as ``parse_response`` gives them), under the hex digest
        ``key``, and append their record to the file."""
        if not _KEY.fullmatch(key):
            raise ValueError(f"cache key must be 64 lowercase hex digits, got {key!r}")
        with self._lock:
            self._entries[key] = row
            if self.path is None:
                return
            line = _record_line(key, raw, row)
            first = self._fh is None
            if first:
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a+b", buffering=0)
                except OSError as exc:
                    raise DataError(
                        f"{self.path}: cannot open the response cache: {exc.strerror}"
                    ) from None
            fcntl.flock(self._fh, fcntl.LOCK_EX)  # other writers' appends wait
            try:
                self._append(self._after_tail(line) if first else line)
            finally:
                fcntl.flock(self._fh, fcntl.LOCK_UN)

    def _after_tail(self, line: bytes) -> bytes:
        """``line`` as the first append goes after the file's end: the torn
        line the open skipped is cut off while it is still the file's last
        bytes, at the same offset; otherwise a newline goes first unless the
        file is empty or ends in one."""
        fd = self._fh.fileno()
        size = os.fstat(fd).st_size
        torn = self._torn
        if torn and size == self._end + len(torn) and os.pread(fd, len(torn), self._end) == torn:
            self._fh.truncate(self._end)
        elif size and os.pread(fd, 1, size - 1) != b"\n":
            return b"\n" + line
        return line

    def _append(self, line: bytes) -> None:
        while line:  # one write, unless the file system takes only part of it
            line = line[self._fh.write(line):]


def ask_engine(
    engine,
    key: str,
    prompt: PromptText,
    persona: Persona,
    context: SimContext,
    categories: CategorySchema,
    cache: ResponseCache,
) -> list[float]:
    """Resolve a cache miss: ask the engine, store the answer under ``key``
    and return its row of probabilities, in category order.

    Parse failures re-ask the identical prompt up to the engine config's
    retry limit, then hard-fail the prompt so the caller can exclude and log
    it. Replay engines error on any miss.
    """
    if engine.replay_only:
        raise EngineError(
            f"replay cache miss for persona {persona.id} on {context.date} "
            f"(stringency {context.stringency:g})"
        )
    retry_limit = engine.retry_limit
    last_error: Exception | None = None
    for _ in range(1 + retry_limit):
        try:
            raw = engine.respond(prompt, persona, context)
        except EngineError as exc:  # transport failure: retry the same prompt
            last_error = exc
            continue
        try:
            row = parse_response(raw, categories)
        except ParseError as exc:
            last_error = exc
            continue
        cache.put(key, raw, row)
        return row
    message = (
        f"persona {persona.id} on {context.date}: "
        f"{'response unparseable' if isinstance(last_error, ParseError) else 'engine failed'} "
        f"after {1 + retry_limit} attempts: {last_error}"
    )
    if isinstance(last_error, ParseError):
        raise ParseError(message)
    raise EngineError(message)
