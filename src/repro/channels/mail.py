"""E-mail channel.

Outgoing e-mail is modelled as a sendmail pipe per message (Figure 1): the
channel's context carries the recipient address, so a ``PasswordPolicy``
attached to the message body can check that the password is flowing to its
owner's address and nowhere else.
"""

from __future__ import annotations
from typing import List, Optional


from ..tracking.propagation import concat, to_tainted_str
from .base import CollectingChannel


class EmailChannel(CollectingChannel):
    """The channel for one outgoing e-mail message."""

    channel_type = "email"

    def __init__(self, recipient: str, context: Optional[dict] = None, *,
                 env=None):
        ctx = dict(context or {})
        ctx.setdefault("email", recipient)
        super().__init__(ctx, env=env)
        self.recipient = recipient


class Message:
    """A delivered e-mail message (as seen by the mail server)."""

    def __init__(self, to: str, subject: str, body: str,
                 sender: Optional[str] = None):
        self.to = to
        self.subject = subject
        self.body = body
        self.sender = sender

    def __repr__(self) -> str:
        return f"Message(to={self.to!r}, subject={self.subject!r})"


class MailTransport:
    """Sends e-mail messages through per-message :class:`EmailChannel`\\ s.

    Messages that pass the assertion checks end up in :attr:`outbox`
    (representing actual delivery); messages that violate an assertion raise
    and are never delivered.
    """

    def __init__(self, default_sender: str = "noreply@example.org", *,
                 env=None):
        import threading

        self.default_sender = default_sender
        #: The owning environment; forwarded to every per-message channel so
        #: its default filter comes from the environment's registry and
        #: policies can resolve environment services at the e-mail boundary.
        self.env = env
        self.outbox: List[Message] = []
        self._lock = threading.Lock()

    def send(self, to: str, subject: str, body,
             sender: Optional[str] = None) -> Message:
        """Compose and send one message.

        The full message text (headers + body) flows through the e-mail
        channel, so policies attached anywhere in the body are checked
        against the recipient in the channel context.
        """
        sender = sender or self.default_sender
        channel = EmailChannel(to, env=self.env)
        text = concat("From: ", sender, "\r\nTo: ", to,
                      "\r\nSubject: ", to_tainted_str(subject), "\r\n\r\n",
                      to_tainted_str(body))
        channel.write(text)
        message = Message(to=to, subject=str(subject),
                          body=str(to_tainted_str(body)), sender=sender)
        with self._lock:
            self.outbox.append(message)
        return message

    def sent_to(self, address: str) -> List[Message]:
        with self._lock:
            return [m for m in self.outbox if m.to == address]

    def clear(self) -> None:
        with self._lock:
            self.outbox.clear()
