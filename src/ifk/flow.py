"""Direct and inverse flow of theories along type functions.

Direct flow pushes a theory forward by taking images of its axioms.
Inverse flow pulls a theory back: a source sequent counts as a theorem
exactly when its image is a theorem at the target.  In the entailment
order the two form an inverse pair, with inverse flow on the left:

    inverse_flow(f, t')  <=  t      iff      t'  <=  direct_flow(f, t)

Every flow renames a theory's axiom ints along its type map (``_renamed``).
Flows need only a bare type function, so no classification code is loaded;
flat theories, which entail by extents, and borrowing along an infomorphism
are ``ifk.logics``'s."""

from __future__ import annotations

from .errors import DEFAULT_SEQUENT_CAP, IfkError, ValidationResult, _map, _Value
from .masks import _mask, _positions
from .theories import _indexed, _require_within, _theory_of_index, sequent_key


def _renamed(t: SequentTheory, f: Mapping[str, str], index: Mapping[str, int]) -> dict[int, int]:
    """Each axiom int of ``t`` and its image: each type's bit goes to its image's bit in ``index``."""
    image = [1 << index[f[name]] for name in t._index]
    image += [bit << len(index) for bit in image]  # the bits of d, then those of g
    return {p: sum({image[k] for k in _positions(p)}) for p in t._masks}  # distinct bits sum to their OR


def _flowed(types: Iterable[str], flows: Iterable[tuple]) -> SequentTheory:
    """The theory over ``types`` of the axioms of each ``(t, f)`` of ``flows``, renamed along ``f``."""
    index = _indexed(types)
    images = {q for t, f in flows for q in _renamed(t, f, index).values()}
    return _theory_of_index(index, sorted(images))


def _require_total(type_map: Mapping[str, str], domain: frozenset[str], codomain: frozenset[str]):
    missing = domain - type_map.keys()
    if missing:
        raise IfkError(f"type map not total, missing: {', '.join(sorted(missing))}")
    bad = {t for t in domain if type_map[t] not in codomain}
    if bad:
        raise IfkError(f"type map lands outside the target language at: {', '.join(sorted(bad))}")


def direct_flow(
    type_map: Mapping[str, str], t: SequentTheory, target_types: Iterable[str]
) -> SequentTheory:
    """Image of every axiom under the type function, over the target language."""
    target_types = frozenset(target_types)
    _require_total(type_map, t.types, target_types)
    return _flowed(target_types, [(t, type_map)])


class InverseFlowTheory(_Value):
    """Query view of a theory pulled back along a type map.

    Axioms are never stored; entailment of a source sequent is answered
    by mapping both of its sides into the target theory's masks and
    asking its compiled engine whether a model refutes the image.  The
    full axiom set (everything the pullback entails) can be materialized
    under a cap.
    """

    type_map: Mapping[str, str]
    target: SequentTheory
    types: frozenset[str]  # the source language
    _freeze = {"type_map": _map, "types": frozenset}
    __eq__, __hash__ = object.__eq__, object.__hash__  # a view: compared by identity

    def __post_init__(self):
        _require_total(self.type_map, self.types, self.target.types)

    def entails(self, s: Sequent) -> bool:
        """The target theory entails the image of ``s`` along the type map."""
        _require_within(self.types, s)
        index, f = self.target._index, self.type_map
        return not self.target._compiled.refutes(
            _mask(index, (f[t] for t in s.antecedent)),
            _mask(index, (f[t] for t in s.consequent)),
        )

    def _image(self) -> list[int]:
        """``image[y]``: the target mask of the images of the types of source state ``y``."""
        index, image = self.target._index, [0]
        for name in sorted(self.types):
            bit = 1 << index[self.type_map[name]]
            image += [m | bit for m in image]  # OR: two types may share an image
        return image

    def materialize(self, cap: int = DEFAULT_SEQUENT_CAP) -> SequentTheory:
        """Every sequent the pullback entails: the theory of the target's
        models pulled back to the source language.

        A source state is such a pullback exactly when some model of the
        target theory has the images of its types holding and the images
        of the other source types failing, so the pulled-back states take
        one engine query per source state, 2^|source types| in all,
        whatever the size of the target.
        """
        from .closure import _theory_of_masks
        def pulled() -> Iterator[int]:
            engine, image = self.target._compiled, self._image()
            full = len(image) - 1
            for y, m in enumerate(image):
                if engine.refutes(m, image[full ^ y]):
                    yield y

        return _theory_of_masks(sorted(self.types), pulled(), cap, "inverse flow materialization")


def inverse_flow(
    type_map: Mapping[str, str], target: SequentTheory, source_types: Iterable[str]
) -> InverseFlowTheory:
    return InverseFlowTheory(type_map, target, source_types)


def check_theory_morphism(
    f: Mapping[str, str], t1: SequentTheory, t2: SequentTheory
) -> ValidationResult:
    """``f`` is a theory morphism when every axiom image is a theorem of
    ``t2``; the defects are the axioms of ``t1`` that the pullback of
    ``t2`` along ``f`` does not entail."""
    _require_total(f, t1.types, t2.types)
    m, low = len(t2.types), (1 << len(t2.types)) - 1
    failed = [p for p, q in _renamed(t1, f, t2._index).items() if t2._compiled.refutes(q >> m, q & low)]
    defects = _theory_of_index(t1._index, failed).axioms  # built for the failed axioms alone
    return ValidationResult.from_defects(sorted(defects, key=sequent_key))
