"""Property tests for the hand-rolled HTTP/1.1 framing.

The parsers in :mod:`repro.serve.http` sit under every request the
service ever sees, so they get the adversarial treatment: Hypothesis
feeds each wire image through a :class:`asyncio.StreamReader` cut at
arbitrary byte boundaries — down to one byte per feed — and the parse
must come out identical.  The truncation property is the sharp edge:
*every* proper prefix of a chunked stream must raise
:class:`TruncatedResponse`, never return short data as a clean body.
"""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.serve.http import (
    RawJson,
    TruncatedResponse,
    encode_chunk,
    encode_json,
    read_chunked_body,
    read_request,
)

SETTINGS = settings(max_examples=60, deadline=None)

_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)


def _feed_in_pieces(reader: asyncio.StreamReader, payload: bytes, cuts):
    """Feed ``payload`` split at ``cuts``, yielding to the loop between
    pieces so the parser genuinely observes partial reads."""

    async def feeder():
        pos = 0
        for cut in sorted(set(cuts)):
            cut = min(cut, len(payload))
            if cut > pos:
                reader.feed_data(payload[pos:cut])
                pos = cut
            await asyncio.sleep(0)
        if pos < len(payload):
            reader.feed_data(payload[pos:])
        reader.feed_eof()

    return asyncio.get_running_loop().create_task(feeder())


async def _parse_request(payload: bytes, cuts):
    reader = asyncio.StreamReader()
    feeder = _feed_in_pieces(reader, payload, cuts)
    request = await read_request(reader)
    await feeder
    return request


async def _parse_chunked(payload: bytes, cuts):
    reader = asyncio.StreamReader()
    feeder = _feed_in_pieces(reader, payload, cuts)
    try:
        return await read_chunked_body(reader)
    finally:
        await feeder


def _request_bytes(doc: dict, path: str, query: dict) -> bytes:
    body = json.dumps(doc).encode()
    target = path
    if query:
        target += "?" + "&".join(f"{k}={v}" for k, v in query.items())
    head = (
        f"POST {target} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class TestRequestFraming:
    @SETTINGS
    @given(
        doc=st.dictionaries(
            _token,
            st.integers(-1000, 1000) | st.booleans() | _token,
            max_size=4,
        ),
        segments=st.lists(_token, max_size=3),
        query=st.dictionaries(_token, _token, max_size=3),
        data=st.data(),
    )
    def test_round_trip_under_arbitrary_splits(
        self, doc, segments, query, data
    ):
        path = "/" + "/".join(segments)
        payload = _request_bytes(doc, path, query)
        cuts = data.draw(
            st.lists(st.integers(0, len(payload)), max_size=12),
            label="cuts",
        )
        request = asyncio.run(_parse_request(payload, cuts))
        assert request is not None
        assert request.method == "POST"
        assert request.path == path
        assert request.query == query
        assert request.json() == doc

    def test_one_byte_at_a_time(self):
        doc = {"workload": "sar", "scheme": True}
        payload = _request_bytes(doc, "/v1/submit", {"tenant": "a"})
        cuts = range(len(payload))  # every boundary: 1-byte feeds
        request = asyncio.run(_parse_request(payload, cuts))
        assert request.path == "/v1/submit"
        assert request.query == {"tenant": "a"}
        assert request.json() == doc

    @SETTINGS
    @given(data=st.data())
    def test_pipelined_keep_alive_parses_both(self, data):
        first = _request_bytes({"n": 1}, "/v1/submit", {})
        second = _request_bytes({"n": 2}, "/v1/grid", {"tenant": "b"})
        payload = first + second
        cuts = data.draw(
            st.lists(st.integers(0, len(payload)), max_size=12),
            label="cuts",
        )

        async def scenario():
            reader = asyncio.StreamReader()
            feeder = _feed_in_pieces(reader, payload, cuts)
            one = await read_request(reader)
            two = await read_request(reader)
            eof = await read_request(reader)
            await feeder
            return one, two, eof

        one, two, eof = asyncio.run(scenario())
        assert one.json() == {"n": 1}
        assert one.path == "/v1/submit"
        assert two.json() == {"n": 2}
        assert two.query == {"tenant": "b"}
        assert eof is None  # clean EOF after the pipeline drains


class TestChunkedFraming:
    @SETTINGS
    @given(
        chunks=st.lists(
            st.binary(min_size=1, max_size=64), max_size=8
        ),
        data=st.data(),
    )
    def test_round_trip_under_arbitrary_splits(self, chunks, data):
        payload = b"".join(encode_chunk(c) for c in chunks) + encode_chunk(
            b""
        )
        cuts = data.draw(
            st.lists(st.integers(0, len(payload)), max_size=12),
            label="cuts",
        )
        body = asyncio.run(_parse_chunked(payload, cuts))
        assert body == b"".join(chunks)

    @SETTINGS
    @given(
        chunks=st.lists(
            st.binary(min_size=1, max_size=32), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    def test_every_proper_prefix_truncates(self, chunks, data):
        """Cut a chunked stream anywhere before its terminator and the
        reader must raise TruncatedResponse — silent short bodies are
        exactly the bug this PR fixes."""
        payload = b"".join(encode_chunk(c) for c in chunks) + encode_chunk(
            b""
        )
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")

        async def scenario():
            try:
                await _parse_chunked(payload[:cut], [])
            except TruncatedResponse:
                return True
            return False

        assert asyncio.run(scenario()) is True

    def test_empty_stream_is_truncated_not_empty_body(self):
        async def scenario():
            try:
                await _parse_chunked(b"", [])
            except TruncatedResponse:
                return True
            return False

        assert asyncio.run(scenario()) is True

    def test_terminator_alone_is_an_empty_body(self):
        body = asyncio.run(_parse_chunked(encode_chunk(b""), [0, 1, 2]))
        assert body == b""


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


class TestSplicedEncoding:
    @SETTINGS
    @given(
        doc=st.dictionaries(st.text(max_size=6), _json_values),
        data=st.data(),
    )
    def test_splicing_fragments_matches_whole_encoding(self, doc, data):
        """Any dict value, at any depth, may be replaced by its own
        ``RawJson`` encoding without changing a byte of the body."""
        def splice(value):
            if not isinstance(value, dict):
                return value
            out = {}
            for key, item in value.items():
                if data.draw(st.booleans(), label=f"raw {key!r}"):
                    out[key] = RawJson(
                        json.dumps(item, sort_keys=True).encode("utf-8")
                    )
                else:
                    out[key] = splice(item)
            return out

        expected = json.dumps(doc, sort_keys=True).encode("utf-8")
        assert encode_json(splice(doc)) == expected
