"""Which public ``repro`` functions the traced run wraps, per process.

Names are patched where their callers look them up: a function the
client or server module imported by name is patched in that module,
a method on its class. The client's own calls into each layer
(randomize, encode, connect, upload, query) are spanned at the call
site in ``run.py`` instead.
"""

from __future__ import annotations

from spans import Recorder


def _frames(args, kwargs, result):
    # The server passes each drained batch positionally, as a list.
    return {"frames": len(args[1])}


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layers (call before ``repro.cli.main``)."""
    from repro.engine.collector import ShardedCollector
    from repro.protocols.base import CollectionLayout
    from repro.service import journal, pipeline
    from repro.service.codec import ReportCodec
    from repro.service.net import protocol, server, tenants
    from repro.service.query import QueryFrontend

    wrap = recorder.wrap
    wrap(protocol.MessageDecoder, "feed", "protocol.feed")
    wrap(server, "encode_json", "protocol.encode_json")
    wrap(tenants.TenantManager, "open_session", "tenants.open_session")
    wrap(tenants.TenantManager, "queries", "tenants.queries")
    wrap(pipeline.CollectorService, "ingest_many", "pipeline.ingest_many", count=_frames)
    wrap(pipeline.CollectorService, "checkpoint", "pipeline.checkpoint")
    wrap(pipeline.CollectorService, "flush", "pipeline.flush")
    wrap(pipeline.CollectorService, "for_protocol", "pipeline.for_protocol")
    wrap(pipeline.IngestionPipeline, "submit", "pipeline.submit")
    wrap(journal.IngestionLog, "append_many", "journal.append_many", count=_frames)
    wrap(journal.FrameWriter, "sync", "journal.fsync")
    wrap(ReportCodec, "decode_many", "codec.decode_many")
    wrap(CollectionLayout, "encode_records", "protocols.encode_records")
    wrap(QueryFrontend, "marginal", "query.marginal")
    wrap(QueryFrontend, "pair_table", "query.pair_table")
    wrap(ShardedCollector, "estimate_marginal", "engine.estimate_marginal")


def install_client(recorder: Recorder) -> None:
    """Wrap what ``CollectorClient`` calls internally (undo with ``restore``)."""
    from repro.service.net import client, protocol

    wrap = recorder.wrap
    wrap(protocol.MessageDecoder, "feed", "protocol.feed")
    wrap(client, "encode_message", "protocol.encode_message")
    wrap(client, "encode_json", "protocol.encode_json")
    wrap(client, "decode_json", "protocol.decode_json")
