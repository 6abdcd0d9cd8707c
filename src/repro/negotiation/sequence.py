"""Trust sequences: the deliverable of the policy-evaluation phase.

"The goal is to determine a sequence of credentials, called trust
sequence, satisfying the disclosure policies of both parties"
(paper Section 4.2).  A sequence is extracted from a satisfiable view
of the negotiation tree: prerequisites first, the originally requested
resource last, with disclosure alternating between the two parties as
node ownership dictates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import NegotiationError
from repro.negotiation.tree import TreeNode, View

__all__ = ["SequenceStep", "TrustSequence"]


@dataclass(frozen=True)
class SequenceStep:
    """One disclosure of the exchange phase."""

    node: TreeNode
    discloser: str
    credential_id: Optional[str]  # None for the root resource grant

    @property
    def is_grant(self) -> bool:
        return self.node.is_root


@dataclass(frozen=True)
class TrustSequence:
    """An ordered disclosure plan extracted from a view."""

    steps: tuple[SequenceStep, ...]

    @classmethod
    def from_view(
        cls,
        view: View,
        credential_for: Callable[[TreeNode], Optional[str]],
    ) -> "TrustSequence":
        """Build the sequence; ``credential_for`` resolves the
        credential id the node's owner selected (None only for the
        root)."""
        steps = []
        for node in view.disclosure_order():
            credential_id = credential_for(node)
            if credential_id is None and not node.is_root:
                raise NegotiationError(
                    f"node {node.node_id} ({node.label!r}) reached the "
                    "exchange phase without a selected credential"
                )
            steps.append(
                SequenceStep(
                    node=node,
                    discloser=node.owner,
                    credential_id=credential_id,
                )
            )
        return cls(tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def disclosures_by(self, party: str) -> list[SequenceStep]:
        return [
            step
            for step in self.steps
            if step.discloser == party and not step.is_grant
        ]

    def describe(self) -> str:
        """Human-readable plan, one line per step."""
        lines = []
        for index, step in enumerate(self.steps, start=1):
            if step.is_grant:
                lines.append(
                    f"{index}. {step.discloser} grants {step.node.label!r}"
                )
            else:
                lines.append(
                    f"{index}. {step.discloser} discloses "
                    f"{step.credential_id!r} for {step.node.label!r}"
                )
        return "\n".join(lines)
