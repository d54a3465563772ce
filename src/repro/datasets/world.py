"""The latent world model behind the synthetic BCT and Anobii dumps.

The paper's data is proprietary, so we replace it with a *generative world*
whose observable marginals match what the paper publishes about its data:

- book popularity is heavy-tailed (median 4 loans per book, a few books read
  thousands of times — Fig. 1 of the paper);
- user activity is heavy-tailed (75 % of users below ~24 readings, a tail up
  to ~480 readings — Section 3 and Fig. 1);
- genre shares are skewed (Comics ~44 %, Thriller ~14 %, Fantasy ~12 % of
  readings — Fig. 2);
- 99 % of users concentrate their readings on two dominant genres
  (Section 3, last paragraph);
- readers are author-loyal: having read an author raises the probability of
  borrowing another of their books (this is the signal behind the paper's
  Fig. 5 finding that author metadata dominates the content-based summary).

Both data sources observe the *same* latent catalogue and the same behaviour
model, which is exactly the property the paper exploits when merging them:
Anobii contributes additional users (for CF) and richer metadata (for CB).

Ground truth (true genres, popularity, preferences) stays accessible on the
:class:`LatentWorld` so tests can assert that the pipeline and the
recommenders recover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.models import LANGUAGES
from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED, derive_rng

#: Coarse (post-aggregation) genres with their target share of readings,
#: matching Fig. 2 of the paper.
COARSE_GENRES: tuple[tuple[str, float], ...] = (
    ("Comics", 0.44),
    ("Thriller", 0.14),
    ("Fantasy", 0.12),
    ("Novels", 0.08),
    ("Children", 0.06),
    ("History", 0.04),
    ("Science", 0.03),
    ("Biography", 0.03),
    ("Poetry", 0.02),
    ("Art", 0.02),
    ("Travel", 0.01),
    ("Cooking", 0.01),
)

#: Raw crowd-voted Anobii genres, grouped by the coarse genre they belong to.
#: Together with the ubiquitous genres below this yields the paper's "41
#: possible genres".
RAW_SUBGENRES: dict[str, tuple[str, ...]] = {
    "Comics": ("Comics", "Graphic Novels", "Manga"),
    "Thriller": ("Thriller", "Crime", "Mystery", "Noir"),
    "Fantasy": ("Fantasy", "Epic Fantasy", "Urban Fantasy", "Fairy Tales"),
    "Novels": ("Contemporary", "Romance", "Historical Fiction", "Short Stories"),
    "Children": ("Children", "Young Adult", "Picture Books"),
    "History": ("History", "Military History", "Ancient History"),
    "Science": ("Science", "Popular Science", "Nature", "Mathematics"),
    "Biography": ("Biography", "Memoir", "Letters"),
    "Poetry": ("Poetry", "Classic Poetry"),
    "Art": ("Art", "Photography", "Architecture"),
    "Travel": ("Travel", "Travel Guides"),
    "Cooking": ("Cooking", "Food And Wine"),
}

#: Genres attached to "almost all books"; the paper's pipeline drops them.
UBIQUITOUS_GENRES = ("Fiction And Literature", "Textbooks", "References", "Self Help")

#: Thematic vocabulary per coarse genre, used for plots and keywords so a
#: text embedding of those fields carries genre signal (as SBERT embeddings
#: of real plots do).
GENRE_WORDS: dict[str, tuple[str, ...]] = {
    "Comics": ("vignetta", "tavola", "eroe", "fumetto", "striscia", "albo",
               "disegno", "nuvola", "matita", "china", "serie", "balloon"),
    "Thriller": ("delitto", "indagine", "commissario", "omicidio", "sospetto",
                 "colpevole", "notte", "pistola", "movente", "alibi", "caso",
                 "detective"),
    "Fantasy": ("drago", "regno", "magia", "spada", "profezia", "elfo",
                "incantesimo", "torre", "viaggio", "creatura", "corona",
                "leggenda"),
    "Novels": ("amore", "famiglia", "memoria", "destino", "silenzio",
               "ritorno", "citta", "inverno", "promessa", "segreto", "vita",
               "assenza"),
    "Children": ("bambino", "scuola", "gioco", "amico", "avventura",
                 "sorpresa", "festa", "animale", "sogno", "zaino", "merenda",
                 "cucciolo"),
    "History": ("impero", "guerra", "rivoluzione", "battaglia", "regime",
                "trattato", "dinastia", "esercito", "confine", "archivio",
                "secolo", "re"),
    "Science": ("esperimento", "teoria", "universo", "cellula", "energia",
                "particella", "evoluzione", "clima", "numero", "laboratorio",
                "gene", "stella"),
    "Biography": ("infanzia", "carriera", "lettera", "diario", "testimone",
                  "ritratto", "memoriale", "intervista", "eredita", "vita",
                  "epistolario", "confessione"),
    "Poetry": ("verso", "rima", "strofa", "canto", "lirica", "metrica",
               "sonetto", "immagine", "voce", "respiro", "parola", "eco"),
    "Art": ("colore", "tela", "museo", "mostra", "scultura", "affresco",
            "prospettiva", "luce", "galleria", "restauro", "ritratto",
            "bozzetto"),
    "Travel": ("itinerario", "mappa", "frontiera", "deserto", "porto",
               "valigia", "strada", "isola", "treno", "orizzonte", "tappa",
               "bussola"),
    "Cooking": ("ricetta", "forno", "ingrediente", "spezia", "impasto",
                "mercato", "vino", "sapore", "tavola", "stagione", "brodo",
                "dolce"),
}

#: Generic vocabulary used for titles (and as plot filler). Titles carry no
#: genre signal on purpose: the paper finds title-only CB ≈ random.
GENERIC_WORDS = (
    "il", "la", "di", "grande", "piccolo", "ultimo", "primo", "nuovo",
    "antico", "giorno", "anno", "mondo", "casa", "tempo", "storia", "libro",
    "ombra", "luce", "mare", "cielo", "terra", "vento", "fiume", "montagna",
    "strada", "porta", "finestra", "giardino", "stanza", "specchio", "nome",
    "voce", "mano", "occhio", "cuore", "passo", "filo", "gioco", "sogno",
    "lettera", "numero", "isola", "ponte", "torre", "bosco", "neve",
    "pioggia", "alba", "tramonto", "stella",
)

FIRST_NAMES = (
    "Alessandro", "Beatrice", "Carlo", "Dafne", "Edoardo", "Francesca",
    "Giulio", "Helena", "Irene", "Jacopo", "Lucia", "Marco", "Nadia",
    "Orlando", "Paola", "Quintino", "Rosa", "Stefano", "Teresa", "Umberto",
    "Valentina", "Walter", "Ximena", "Ylenia", "Zeno", "Agata", "Bruno",
    "Chiara", "Dario", "Elena", "Fabio", "Greta", "Hugo", "Ida", "Leonardo",
    "Marta", "Nicola", "Olga", "Pietro", "Rita",
)

SURNAMES = (
    "Rossi", "Bianchi", "Ferrari", "Esposito", "Romano", "Colombo", "Ricci",
    "Marino", "Greco", "Bruno", "Gallo", "Conti", "DeLuca", "Mancini",
    "Costa", "Giordano", "Rizzo", "Lombardi", "Moretti", "Barbieri",
    "Fontana", "Santoro", "Mariani", "Rinaldi", "Caruso", "Ferrara",
    "Galli", "Martini", "Leone", "Longo", "Gentile", "Martinelli",
    "Vitale", "Lombardo", "Serra", "Coppola", "DeSantis", "DAngelo",
    "Marchetti", "Parisi", "Villa", "Conte", "Ferraro", "Ferri", "Fabbri",
    "Bianco", "Marini", "Grasso", "Valentini", "Messina", "Sala", "DeAngelis",
    "Gatti", "Pellegrini", "Palumbo", "Sanna", "Farina", "Rizzi", "Monti",
    "Cattaneo", "Morelli", "Amato", "Silvestri", "Mazza", "Testa",
    "Grassi", "Pellegrino", "Carbone", "Giuliani", "Benedetti", "Barone",
    "Rossetti", "Caputo", "Montanari", "Guerra", "Palmieri", "Bernardi",
    "Martino", "Fiore", "DeRosa", "Ferretti", "Bellini", "Basile",
    "Riva", "Donati", "Piras", "Vitali", "Battaglia", "Sartori", "Neri",
    "Costantini", "Milani", "Pagano", "Ruggiero", "Sorrentino", "DAmico",
    "Orlando", "Damico", "Negri",
)


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the generative world.

    The defaults correspond to the ``default`` experiment scale (see
    ``repro.experiments.config``); tests use smaller values.
    """

    n_books: int = 2000
    n_authors: int = 600

    #: Zipf exponent of books-per-author (how prolific top authors are).
    author_prolificness: float = 0.60
    n_bct_users: int = 800
    n_anobii_users: int = 5200
    seed: int = DEFAULT_SEED

    #: log-normal user activity: exp(mu) is the median readings per user.
    activity_log_mean: float = 2.9  # median ~ 18 readings
    activity_log_sigma: float = 0.85
    min_activity: int = 2
    max_activity: int = 480

    #: Zipf exponent of within-genre book popularity.
    popularity_exponent: float = 0.95

    #: Readers start with bestsellers and drift to niche titles: the first
    #: ``early_fraction`` of a user's readings sample popularity sharpened
    #: by ``early_exponent_scale``, the rest flattened by
    #: ``late_exponent_scale``. This matches the observed weakness of the
    #: global-popularity baseline under a temporal split (paper Table 1:
    #: Most Read Items underperforms Random Items).
    early_fraction: float = 0.55
    early_exponent_scale: float = 1.4
    late_exponent_scale: float = 0.0

    #: Experienced readers have exhausted the popular head of their genres,
    #: so beyond ``deep_exploration_threshold`` distinct books their
    #: non-loyal picks skew towards the deep tail
    #: (``deep_exponent_scale < 0`` inverts the popularity law). This is
    #: what keeps collaborative filtering nearly flat for long-history
    #: users in the paper's Fig. 4: their held-out books are obscure titles
    #: with weak interaction support.
    deep_exploration_threshold: int = 10
    deep_exponent_scale: float = -1.2

    #: Author loyalty ramps up with reading experience: the probability that
    #: a reading re-picks an already-read author is
    #: ``author_loyalty * min(1, books_read / loyalty_ramp_books)``.
    #: Light readers explore; devoted readers follow authors. This is the
    #: signal behind the paper's Fig. 4 (content-based recommendations
    #: overtake BPR for users with long histories) and Fig. 5 (the author
    #: field dominates the metadata summary).
    author_loyalty: float = 0.65
    loyalty_ramp_books: int = 40

    #: Latent taste communities: within every genre, authors (and therefore
    #: books) belong to one of ``n_communities`` reader communities, and a
    #: user strongly prefers one of them. The community is *not* observable
    #: in any metadata field, so collaborative filtering can learn it while
    #: content-based similarity cannot — the structural reason BPR
    #: outperforms Closest Items in the paper's Table 1.
    n_communities: int = 6
    primary_community_affinity: float = 0.95

    #: Taste drift: across a long reading life, a reader's community
    #: affinity migrates toward a second community —
    #: ``d = drift_max * min(1, books_read / drift_books)`` interpolates the
    #: affinity vector. Heavy readers' recent (held-out) readings therefore
    #: reflect a taste their older history under-represents, which caps how
    #: much collaborative filtering gains from long histories (the flat BPR
    #: curve of the paper's Fig. 4). Content-based similarity is unaffected:
    #: communities are invisible to metadata either way. Drift starts after
    #: ``drift_onset`` books and saturates over the following
    #: ``drift_books``, so it only separates the histories of heavy readers.
    community_drift_max: float = 0.75
    community_drift_onset_books: int = 15
    community_drift_books: int = 40

    #: weights of a user's two dominant genres; the remainder spreads over
    #: all genres proportionally to global shares (99 % of users end up with
    #: two genres dominating, as the paper reports).
    primary_genre_weight: float = 0.63
    secondary_genre_weight: float = 0.33

    #: catalogue overlap between the two sources.
    share_in_both: float = 0.76
    share_bct_only: float = 0.12  # remainder is Anobii-only

    #: fraction of a user's Anobii events that are negative (rating < 3).
    negative_rating_share: float = 0.18

    #: Re-borrowing: library users borrow some books repeatedly (comics and
    #: children's books especially), so the BCT Loans table counts events,
    #: not distinct readers. This is why the paper's Most Read Items
    #: baseline is so weak: the top of the loan-count chart is dominated by
    #: heavily re-borrowed books that sit in few users' held-out readings.
    #: Anobii has no repeats (a book is rated once).
    repeat_genres: tuple[str, ...] = ("Comics", "Children")
    repeat_prob_high: float = 0.65
    repeat_prob_low: float = 0.10
    max_repeat_loans: int = 8

    #: observation periods (inclusive year ranges) per the paper.
    bct_years: tuple[int, int] = (2012, 2020)
    anobii_years: tuple[int, int] = (2014, 2021)

    def __post_init__(self) -> None:
        if self.n_books < len(COARSE_GENRES):
            raise ConfigurationError(
                f"n_books={self.n_books} is smaller than the number of genres"
            )
        if self.n_authors < 1 or self.n_authors > len(FIRST_NAMES) * len(SURNAMES):
            raise ConfigurationError(
                f"n_authors must be in [1, {len(FIRST_NAMES) * len(SURNAMES)}]"
            )
        if not 0 < self.share_in_both <= 1 or self.share_in_both + self.share_bct_only > 1:
            raise ConfigurationError("catalogue shares must partition [0, 1]")
        if self.min_activity < 1 or self.max_activity < self.min_activity:
            raise ConfigurationError("invalid activity bounds")


@dataclass
class UserProfile:
    """Latent preferences of one reader (ground truth, not observable)."""

    user_id: str
    source: str  # "bct" or "anobii"
    genre_probs: np.ndarray  # categorical over coarse genres
    community_affinity: np.ndarray  # categorical over latent communities
    drift_affinity: np.ndarray  # affinity the user drifts toward over time
    activity: int
    author_loyalty: float
    readings: list[tuple[int, int]] = field(default_factory=list)
    """(book index, day offset within the source period), time-ordered."""
    dislikes: list[tuple[int, int]] = field(default_factory=list)
    """negative events (Anobii users only), same structure."""


class LatentWorld:
    """The fully-specified generative world; see the module docstring."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        self.genre_names = tuple(name for name, _ in COARSE_GENRES)
        self.genre_shares = np.asarray([share for _, share in COARSE_GENRES])
        self.genre_shares = self.genre_shares / self.genre_shares.sum()
        self._build_authors()
        self._build_books()
        self._build_users()
        self._simulate_readings()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_authors(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "world", "authors")
        pairs = rng.choice(
            len(FIRST_NAMES) * len(SURNAMES), size=cfg.n_authors, replace=False
        )
        self.author_names = [
            f"{FIRST_NAMES[p % len(FIRST_NAMES)]} {SURNAMES[p // len(FIRST_NAMES)]}"
            for p in pairs
        ]
        # Authors write in one primary genre; genre sizes follow readership.
        self.author_genre = rng.choice(
            len(self.genre_names), size=cfg.n_authors, p=self.genre_shares
        )

    def _build_books(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "world", "books")
        n = cfg.n_books

        # Assign each book an author; prolific authors follow a Zipf law.
        author_weights = (
            1.0 / np.arange(1, cfg.n_authors + 1) ** cfg.author_prolificness
        )
        author_weights /= author_weights.sum()
        self.book_author = rng.choice(cfg.n_authors, size=n, p=author_weights)

        # A book's community is independent of its author: authors write
        # across styles, and loyal readers follow them regardless. This
        # makes author loyalty a signal the author metadata field carries
        # but the community structure (and hence CF) does not — the
        # mechanism behind the content-based model's advantage for
        # long-history users (paper Fig. 4).
        self.book_community = rng.integers(cfg.n_communities, size=n)

        # A book's primary genre is its author's genre; ~12 % carry a
        # secondary genre so genre mixtures (top-4 votes) are non-trivial.
        self.book_genre = self.author_genre[self.book_author].copy()
        self.book_secondary = np.full(n, -1, dtype=np.int64)
        has_secondary = rng.random(n) < 0.12
        self.book_secondary[has_secondary] = rng.choice(
            len(self.genre_names), size=int(has_secondary.sum()), p=self.genre_shares
        )
        same = self.book_secondary == self.book_genre
        self.book_secondary[same] = -1

        # Within-genre Zipf popularity, shuffled so book ids are not sorted
        # by popularity.
        self.book_popularity = np.empty(n)
        for g in range(len(self.genre_names)):
            members = np.flatnonzero(self.book_genre == g)
            ranks = rng.permutation(len(members)) + 1
            self.book_popularity[members] = 1.0 / ranks**cfg.popularity_exponent

        # Catalogue membership and observable noise fields.
        membership = rng.random(n)
        self.book_in_bct = membership < cfg.share_in_both + cfg.share_bct_only
        self.book_in_anobii = (membership < cfg.share_in_both) | (
            membership >= cfg.share_in_both + cfg.share_bct_only
        )
        self.book_language = np.where(
            rng.random(n) < 0.85, "ita", rng.choice(LANGUAGES[1:], size=n)
        ).astype(object)
        materials = rng.choice(
            ["monograph", "manuscript", "dvd", "cd", "periodical"],
            size=n,
            p=[0.82, 0.04, 0.07, 0.04, 0.03],
        )
        self.book_material = materials.astype(object)

        self.book_titles = [self._make_title(rng) for _ in range(n)]
        self.book_plots = [
            self._make_text(rng, book, length=(20, 34), genre_share=0.55)
            for book in range(n)
        ]
        self.book_keywords = [
            self._make_text(rng, book, length=(4, 7), genre_share=0.8)
            for book in range(n)
        ]

    def _make_title(self, rng: np.random.Generator) -> str:
        words = rng.choice(GENERIC_WORDS, size=rng.integers(2, 6))
        return " ".join(words).capitalize()

    def _make_text(
        self,
        rng: np.random.Generator,
        book: int,
        length: tuple[int, int],
        genre_share: float,
    ) -> str:
        """Build a genre-flavoured text (plot or keyword list) for ``book``."""
        n_words = int(rng.integers(length[0], length[1] + 1))
        pools = [GENRE_WORDS[self.genre_names[self.book_genre[book]]]]
        if self.book_secondary[book] >= 0:
            pools.append(GENRE_WORDS[self.genre_names[self.book_secondary[book]]])
        words = []
        for _ in range(n_words):
            if rng.random() < genre_share:
                pool = pools[int(rng.integers(len(pools)))]
            else:
                pool = GENERIC_WORDS
            words.append(pool[int(rng.integers(len(pool)))])
        return " ".join(words)

    def _build_users(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "world", "users")
        self.users: list[UserProfile] = []
        for source, count in (("bct", cfg.n_bct_users), ("anobii", cfg.n_anobii_users)):
            for i in range(count):
                activity = int(
                    np.clip(
                        rng.lognormal(cfg.activity_log_mean, cfg.activity_log_sigma),
                        cfg.min_activity,
                        cfg.max_activity,
                    )
                )
                primary, secondary = rng.choice(
                    len(self.genre_names), size=2, replace=False, p=self.genre_shares
                )
                probs = (
                    (1.0 - cfg.primary_genre_weight - cfg.secondary_genre_weight)
                    * self.genre_shares.copy()
                )
                probs[primary] += cfg.primary_genre_weight
                probs[secondary] += cfg.secondary_genre_weight
                probs /= probs.sum()
                loyalty = float(
                    np.clip(rng.normal(cfg.author_loyalty, 0.08), 0.05, 0.75)
                )
                home, target = rng.choice(
                    cfg.n_communities, size=min(2, cfg.n_communities), replace=False
                ) if cfg.n_communities > 1 else (0, 0)
                affinity = self._affinity_vector(int(home))
                drift_affinity = self._affinity_vector(int(target))
                self.users.append(
                    UserProfile(
                        user_id=f"{source}_u{i:06d}",
                        source=source,
                        genre_probs=probs,
                        community_affinity=affinity,
                        drift_affinity=drift_affinity,
                        activity=activity,
                        author_loyalty=loyalty,
                    )
                )

    def _affinity_vector(self, primary: int) -> np.ndarray:
        """Community affinity concentrated on ``primary``."""
        cfg = self.config
        affinity = np.full(
            cfg.n_communities,
            (1.0 - cfg.primary_community_affinity)
            / max(cfg.n_communities - 1, 1),
        )
        affinity[primary] = cfg.primary_community_affinity
        return affinity

    def _simulate_readings(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "world", "readings")
        catalogues = {
            "bct": self._genre_catalogue(self.book_in_bct),
            "anobii": self._genre_catalogue(self.book_in_anobii),
        }
        in_source = {"bct": self.book_in_bct, "anobii": self.book_in_anobii}
        author_books: dict[int, list[int]] = {}
        for book, author in enumerate(self.book_author):
            author_books.setdefault(int(author), []).append(book)

        for user in self.users:
            books_by_genre, cum_early, cum_late, cum_deep = catalogues[user.source]
            read: set[int] = set()
            read_authors: list[int] = []
            events: list[int] = []
            early_cutoff = cfg.early_fraction * user.activity
            for step in range(user.activity):
                if step < early_cutoff:
                    cum_by_genre = cum_early
                elif len(read) > cfg.deep_exploration_threshold:
                    cum_by_genre = cum_deep
                else:
                    cum_by_genre = cum_late
                book = self._pick_book(
                    rng, user, books_by_genre, cum_by_genre,
                    read, read_authors, author_books, in_source[user.source],
                )
                if book is None:
                    continue
                read.add(book)
                # Appending on every reading makes the uniform draw in
                # _pick_book preferential: authors read three times are
                # three times as likely to be followed again (favourite
                # authors), concentrating loyalty where the content-based
                # model can see it.
                read_authors.append(int(self.book_author[book]))
                events.append(book)
            days = self._sample_days(rng, user.source, len(events))
            user.readings = list(zip(events, days))
            if user.source == "bct":
                user.readings.extend(self._repeat_loans(rng, user.readings))
                user.readings.sort(key=lambda pair: pair[1])
            if user.source == "anobii":
                user.dislikes = self._simulate_dislikes(
                    rng, user, books_by_genre, cum_late, read
                )

    def _pick_book(
        self,
        rng: np.random.Generator,
        user: UserProfile,
        books_by_genre: list[np.ndarray],
        cum_by_genre: list[np.ndarray],
        read: set[int],
        read_authors: list[int],
        author_books: dict[int, list[int]],
        in_source: np.ndarray,
    ) -> int | None:
        # Author-loyal pick: another unread book of an author already read.
        # Loyalty ramps with experience; see WorldConfig.author_loyalty.
        effective_loyalty = user.author_loyalty * min(
            1.0, len(read) / self.config.loyalty_ramp_books
        )
        if read_authors and rng.random() < effective_loyalty:
            author = read_authors[int(rng.integers(len(read_authors)))]
            candidates = [
                b for b in author_books[author] if b not in read and in_source[b]
            ]
            if candidates:
                return candidates[int(rng.integers(len(candidates)))]
        # Genre-driven pick, popularity-weighted within the genre, thinned
        # by the user's community affinity, rejecting already-read books.
        genre = int(rng.choice(len(self.genre_names), p=user.genre_probs))
        books = books_by_genre[genre]
        if len(books) == 0:
            return None
        cum = cum_by_genre[genre]
        progress = (
            len(read) - self.config.community_drift_onset_books
        ) / self.config.community_drift_books
        drift = self.config.community_drift_max * min(1.0, max(0.0, progress))
        affinity = (
            (1.0 - drift) * user.community_affinity + drift * user.drift_affinity
        )
        max_affinity = affinity.max()
        for _ in range(16):
            position = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            book = int(books[min(position, len(books) - 1)])
            if book in read:
                continue
            acceptance = affinity[self.book_community[book]] / max_affinity
            if rng.random() < acceptance:
                return book
        return None

    def _repeat_loans(
        self, rng: np.random.Generator, readings: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Extra loan events for re-borrowed books (BCT users only)."""
        cfg = self.config
        first, last = cfg.bct_years
        horizon = (last - first + 1) * 365 - 1
        repeat_genres = {
            g for g, name in enumerate(self.genre_names)
            if name in cfg.repeat_genres
        }
        repeats: list[tuple[int, int]] = []
        for book, day in readings:
            in_repeat_genre = int(self.book_genre[book]) in repeat_genres
            probability = (
                cfg.repeat_prob_high if in_repeat_genre else cfg.repeat_prob_low
            )
            if rng.random() >= probability:
                continue
            count = int(rng.integers(1, cfg.max_repeat_loans + 1))
            gap = day
            for _ in range(count):
                gap += int(rng.integers(14, 120))
                if gap > horizon:
                    break
                repeats.append((book, gap))
        return repeats

    def _simulate_dislikes(
        self,
        rng: np.random.Generator,
        user: UserProfile,
        books_by_genre: list[np.ndarray],
        cum_by_genre: list[np.ndarray],
        read: set[int],
    ) -> list[tuple[int, int]]:
        cfg = self.config
        n_negative = int(rng.binomial(user.activity, cfg.negative_rating_share))
        if n_negative == 0:
            return []
        # Disliked books come from the user's *least* preferred genres.
        inverted = 1.0 / (user.genre_probs + 1e-3)
        inverted /= inverted.sum()
        events: list[int] = []
        for _ in range(n_negative):
            genre = int(rng.choice(len(self.genre_names), p=inverted))
            books = books_by_genre[genre]
            if len(books) == 0:
                continue
            cum = cum_by_genre[genre]
            position = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            book = int(books[min(position, len(books) - 1)])
            if book not in read:
                events.append(book)
        days = self._sample_days(rng, user.source, len(events))
        return list(zip(events, days))

    def _genre_catalogue(
        self, in_source: np.ndarray
    ) -> tuple[
        list[np.ndarray], list[np.ndarray], list[np.ndarray], list[np.ndarray]
    ]:
        """Per-genre book ids and early/late/deep cumulative popularity tables.

        The early table sharpens the popularity law (bestseller phase) and
        the late table flattens it (exploratory phase); see ``WorldConfig``.
        """
        cfg = self.config
        books_by_genre: list[np.ndarray] = []
        cum_early: list[np.ndarray] = []
        cum_late: list[np.ndarray] = []
        cum_deep: list[np.ndarray] = []
        for g in range(len(self.genre_names)):
            members = np.flatnonzero((self.book_genre == g) & in_source)
            books_by_genre.append(members)
            if len(members):
                popularity = self.book_popularity[members]
                cum_early.append(np.cumsum(popularity**cfg.early_exponent_scale))
                cum_late.append(np.cumsum(popularity**cfg.late_exponent_scale))
                cum_deep.append(np.cumsum(popularity**cfg.deep_exponent_scale))
            else:
                cum_early.append(np.asarray([]))
                cum_late.append(np.asarray([]))
                cum_deep.append(np.asarray([]))
        return books_by_genre, cum_early, cum_late, cum_deep

    def _sample_days(
        self, rng: np.random.Generator, source: str, count: int
    ) -> list[int]:
        first, last = (
            self.config.bct_years if source == "bct" else self.config.anobii_years
        )
        n_days = (last - first + 1) * 365
        return sorted(int(d) for d in rng.integers(0, n_days, size=count))

    # ------------------------------------------------------------------
    # ground-truth accessors used by tests and diagnostics
    # ------------------------------------------------------------------

    @property
    def n_books(self) -> int:
        return self.config.n_books

    @property
    def n_users(self) -> int:
        return len(self.users)

    def raw_genre_votes(self, book: int, rng: np.random.Generator) -> dict[str, int]:
        """Sample crowd-sourced genre votes for ``book``.

        Votes concentrate on raw subgenres of the book's true genre(s), with
        ubiquitous genres voted on most books and occasional spurious votes —
        the noise the pipeline's genre-cleaning step must remove.
        """
        base = 4 + self.book_popularity[book] * 60
        votes: dict[str, int] = {}
        primary = self.genre_names[self.book_genre[book]]
        for sub in RAW_SUBGENRES[primary]:
            count = int(rng.poisson(base))
            if count:
                votes[sub] = count
        if self.book_secondary[book] >= 0:
            secondary = self.genre_names[self.book_secondary[book]]
            for sub in RAW_SUBGENRES[secondary]:
                count = int(rng.poisson(base * 0.45))
                if count:
                    votes[sub] = votes.get(sub, 0) + count
        for ubiquitous in UBIQUITOUS_GENRES:
            if rng.random() < 0.8:
                votes[ubiquitous] = int(rng.poisson(base * 0.8)) + 1
        if rng.random() < 0.10:  # spurious off-genre vote
            other = self.genre_names[int(rng.integers(len(self.genre_names)))]
            sub = RAW_SUBGENRES[other][int(rng.integers(len(RAW_SUBGENRES[other])))]
            votes[sub] = votes.get(sub, 0) + 1
        return votes
