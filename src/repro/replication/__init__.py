"""Replication: WAL-shipping followers over the durability log.

The subsystem turns one durable database into a primary with read
replicas at bounded LSN lag:

* :class:`Follower` -- a :class:`~repro.durability.recovery.LogTail`
  (the log reader crash recovery runs to the end of the WAL: snapshot
  bootstrap, byte-offset cursor, rotation handoff at checkpoints) plus
  the durable gate, the retention pin and a polling thread, so it
  applies only fsync-covered records;
* :class:`Primary` -- the watermark/retention endpoint on an existing
  :class:`~repro.durability.manager.DurabilityManager`;
* :class:`PrimaryServer` / :class:`RemotePrimary` -- the same endpoint
  verbs over a length-prefixed JSON socket protocol, for followers in
  separate processes (record bytes travel via the shared log directory;
  only control state crosses the socket).

The api layer wraps a follower as a read-only database:
``Database.follow(root, primary=...)`` +
:class:`~repro.api.session.FollowerSession`.
"""

from ..durability.recovery import ReplicationCursor
from .cursor import CursorExchange
from .errors import ReplicationError, RetentionGapError, TransportError
from .follower import Follower
from .primary import Primary
from .transport import PrimaryServer, RemotePrimary

__all__ = [
    "CursorExchange",
    "Follower",
    "Primary",
    "PrimaryServer",
    "RemotePrimary",
    "ReplicationCursor",
    "ReplicationError",
    "RetentionGapError",
    "TransportError",
]
