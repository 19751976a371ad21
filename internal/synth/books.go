// Package synth generates the synthetic worlds behind the experiments.
//
// The bookstore generator reproduces the population statistics of Example
// 4.1's AbeBooks crawl (876 bookstores, 1263 computer-science books, 24364
// listings, 1-1095 books per store, store accuracy spanning 0-0.92, 1-23
// author-list variants per book averaging about 4) while planting ground
// truth the crawl could not provide: the true author list of every book and
// the exact copier network, sized so the number of dependent store pairs
// sharing at least 10 books matches the paper's 471.
package synth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// AuthorsAttr and friends are the attributes of a listing.
const (
	AuthorsAttr   = "authors"
	TitleAttr     = "title"
	PublisherAttr = "publisher"
	YearAttr      = "year"
	TopicAttr     = "topic"
)

// BookConfig parameterizes the bookstore corpus.
type BookConfig struct {
	Seed int64
	// Population targets (Example 4.1 defaults).
	NBooks, NStores, NListings int
	// MaxPerStore caps the biggest store's catalog.
	MaxPerStore int
	// DepPairTarget is the number of dependent store pairs to plant among
	// pairs sharing at least MinSharedForDep books.
	DepPairTarget   int
	MinSharedForDep int
	// CopyRate is the probability a copier reproduces the master's raw
	// listing for a shared book (otherwise it lists independently).
	CopyRate float64
	// ErrorPoolSize is the number of distinct corrupted author lists per
	// book (errors repeat across stores, as real-world corruptions do).
	ErrorPoolSize int
	// MinAccuracy, MaxAccuracy bound store accuracies.
	MinAccuracy, MaxAccuracy float64
}

// DefaultBookConfig matches Example 4.1.
func DefaultBookConfig() BookConfig {
	return BookConfig{
		Seed:            1,
		NBooks:          1263,
		NStores:         876,
		NListings:       24364,
		MaxPerStore:     1095,
		DepPairTarget:   471,
		MinSharedForDep: 10,
		CopyRate:        0.9,
		ErrorPoolSize:   6,
		MinAccuracy:     0,
		MaxAccuracy:     0.92,
	}
}

// Validate reports configuration errors.
func (c BookConfig) Validate() error {
	if c.NBooks < 1 || c.NStores < 2 || c.NListings < c.NStores {
		return errors.New("synth: population targets too small")
	}
	if c.MaxPerStore < 1 || c.MaxPerStore > c.NBooks {
		return errors.New("synth: MaxPerStore must be in [1, NBooks]")
	}
	if c.DepPairTarget < 0 {
		return errors.New("synth: DepPairTarget must be >= 0")
	}
	if c.MinSharedForDep < 1 {
		return errors.New("synth: MinSharedForDep must be >= 1")
	}
	if c.CopyRate <= 0 || c.CopyRate >= 1 {
		return errors.New("synth: CopyRate must be in (0,1)")
	}
	if c.ErrorPoolSize < 1 {
		return errors.New("synth: ErrorPoolSize must be >= 1")
	}
	if c.MinAccuracy < 0 || c.MaxAccuracy > 1 || c.MinAccuracy >= c.MaxAccuracy {
		return errors.New("synth: accuracy bounds invalid")
	}
	return nil
}

// Book is one generated book with its ground truth.
type Book struct {
	ID        string // entity id, e.g. "book0042"
	Title     string
	Topic     string
	Publisher string
	Year      int
	Authors   []author
	// TrueAuthors is the canonical rendering (full-name, semicolon form).
	TrueAuthors string
}

// BookCorpus is the generated world.
type BookCorpus struct {
	Config  BookConfig
	Dataset *dataset.Dataset
	World   *model.World
	Books   []Book
	Stores  []model.SourceID
	// StoreAccuracy is the planted per-store accuracy.
	StoreAccuracy map[model.SourceID]float64
	// MasterOf maps each copier to its master.
	MasterOf map[model.SourceID]model.SourceID
	// DependentPairs holds every planted dependent pair (copier-master and
	// copier-copier within a group).
	DependentPairs map[model.SourcePair]bool
	// Listings is the number of (store, book) listings generated.
	Listings int
}

// BookObj returns the authors object id of a book.
func BookObj(bookID string) model.ObjectID { return model.Obj(bookID, AuthorsAttr) }

// AuthorsDataset projects the corpus to author-list claims only — the
// conflicting attribute the dependence analysis runs on (title, publisher,
// year and topic are listed faithfully and would only dilute the
// evidence).
func (c *BookCorpus) AuthorsDataset() (*dataset.Dataset, error) {
	out := dataset.New()
	for _, cl := range c.Dataset.Claims() {
		if cl.Object.Attribute == AuthorsAttr {
			if err := out.Add(cl); err != nil {
				return nil, err
			}
		}
	}
	out.Freeze()
	return out, nil
}

// GenerateBooks builds the corpus.
func GenerateBooks(cfg BookConfig) (*BookCorpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := &BookCorpus{
		Config:         cfg,
		World:          model.NewWorld(),
		StoreAccuracy:  map[model.SourceID]float64{},
		MasterOf:       map[model.SourceID]model.SourceID{},
		DependentPairs: map[model.SourcePair]bool{},
	}

	corpus.Books = generateBookTruths(rng, cfg, corpus.World)

	// Store catalog sizes: a skewed allocation hitting the exact listing
	// total with the configured maximum.
	sizes := sizesFor(rng, cfg.NStores, cfg.NListings, cfg.MaxPerStore)

	// Store ids sorted by descending size so copier groups can be attached
	// to adequately-sized masters.
	for i := 0; i < cfg.NStores; i++ {
		corpus.Stores = append(corpus.Stores, model.SourceID(fmt.Sprintf("store%04d", i)))
	}
	// Accuracies: most stores are decent (upper band), a minority are bad
	// (lower band), and the extremes are pinned so the reported range
	// matches the paper's 0-0.92. A uniform spread would make the whole
	// marketplace implausibly noisy.
	span := cfg.MaxAccuracy - cfg.MinAccuracy
	split := cfg.MinAccuracy + span*0.6
	upper := (cfg.NStores*4 + 4) / 5 // 80% of stores in the upper band
	for i, s := range corpus.Stores {
		var acc float64
		if i < upper {
			acc = split + (cfg.MaxAccuracy-split)*float64(i)/float64(max(upper-1, 1))
		} else {
			lo := cfg.NStores - upper
			acc = cfg.MinAccuracy + (split-cfg.MinAccuracy)*float64(i-upper)/float64(max(lo-1, 1))
		}
		corpus.StoreAccuracy[s] = acc
	}
	rng.Shuffle(len(corpus.Stores), func(i, j int) {
		a, b := corpus.Stores[i], corpus.Stores[j]
		corpus.StoreAccuracy[a], corpus.StoreAccuracy[b] =
			corpus.StoreAccuracy[b], corpus.StoreAccuracy[a]
	})

	// Plant copier groups: Σ C(group, 2) == DepPairTarget.
	groups := planGroups(cfg.DepPairTarget)
	memberships := assignGroups(rng, groups, corpus, sizes, cfg)

	// Popularity weights: Zipf with exponent 1.2 over books, heavy-tailed
	// enough that the rarest books receive a single listing (the paper's
	// variant counts start at 1) while popular books appear in hundreds of
	// stores.
	weights := make([]float64, cfg.NBooks)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.2)
	}

	// Error pools: per book, a small set of corrupted author lists.
	errorPools := make([][][]author, cfg.NBooks)
	for i, b := range corpus.Books {
		pool := make([][]author, cfg.ErrorPoolSize)
		for k := range pool {
			pool[k] = corruptAuthors(rng, b.Authors, i)
		}
		errorPools[i] = pool
	}

	// Phase 1: catalogs. Masters and independents sample by popularity;
	// copiers take (mostly) their master's catalog.
	order := generationOrder(corpus, memberships)
	catalogs := map[model.SourceID][]int{}
	for _, si := range order {
		s := corpus.Stores[si]
		size := sizes[si]
		if master, isCopier := corpus.MasterOf[s]; isCopier {
			catalogs[s] = copierCatalog(rng, catalogs[master], size, cfg, weights)
		} else {
			catalogs[s] = sampleBooks(rng, cfg.NBooks, size, weights)
		}
	}
	ensureCoverage(rng, corpus, catalogs, cfg)

	// Phase 2: values. Masters before copiers so copiers can replicate
	// the master's exact surface form.
	d := dataset.New()
	rawValue := map[model.SourceID]map[int]string{}
	for _, si := range order {
		s := corpus.Stores[si]
		master, isCopier := corpus.MasterOf[s]
		raw := map[int]string{}
		houseStyle := style(rng.Intn(int(numStyles)))
		for _, bi := range catalogs[s] {
			b := corpus.Books[bi]
			var authorsVal string
			if isCopier {
				if mv, ok := rawValue[master][bi]; ok && rng.Float64() < cfg.CopyRate {
					authorsVal = mv
				}
			}
			if authorsVal == "" {
				authorsVal = independentListing(rng, b, errorPools[bi],
					corpus.StoreAccuracy[s], houseStyle)
			}
			raw[bi] = authorsVal
			if err := addListing(d, s, b, authorsVal); err != nil {
				return nil, err
			}
			corpus.Listings++
		}
		rawValue[s] = raw
	}
	d.Freeze()
	corpus.Dataset = d
	return corpus, nil
}

// ensureCoverage guarantees every book at least one listing: unlisted books
// replace the most popular books in the largest catalogs (which certainly
// already carry them elsewhere), preserving catalog sizes and the listing
// total.
func ensureCoverage(rng *rand.Rand, corpus *BookCorpus,
	catalogs map[model.SourceID][]int, cfg BookConfig) {
	listed := make([]bool, cfg.NBooks)
	for _, cat := range catalogs {
		for _, bi := range cat {
			listed[bi] = true
		}
	}
	var missing []int
	for bi, ok := range listed {
		if !ok {
			missing = append(missing, bi)
		}
	}
	if len(missing) == 0 {
		return
	}
	// Count listings per book to find safely removable duplicates.
	counts := make([]int, cfg.NBooks)
	for _, cat := range catalogs {
		for _, bi := range cat {
			counts[bi]++
		}
	}
	// Walk big independent stores and swap duplicates for missing books.
	for _, s := range corpus.Stores {
		if len(missing) == 0 {
			break
		}
		if _, isCopier := corpus.MasterOf[s]; isCopier {
			continue // keep copier catalogs subsets of their masters
		}
		cat := catalogs[s]
		have := map[int]bool{}
		for _, bi := range cat {
			have[bi] = true
		}
		for i := len(cat) - 1; i >= 0 && len(missing) > 0; i-- {
			bi := cat[i]
			if counts[bi] <= 2 || have[missing[0]] {
				continue
			}
			counts[bi]--
			cat[i] = missing[0]
			have[missing[0]] = true
			counts[missing[0]]++
			missing = missing[1:]
		}
		sort.Ints(cat)
		catalogs[s] = cat
	}
	_ = rng
}

// generateBookTruths creates books and registers their ground truth.
func generateBookTruths(rng *rand.Rand, cfg BookConfig, w *model.World) []Book {
	books := make([]Book, cfg.NBooks)
	nextAuthor := 0
	for i := range books {
		topic := topics[i%len(topics)]
		nAuth := 1 + rng.Intn(4)
		authors := make([]author, nAuth)
		for a := range authors {
			g, f := personName(nextAuthor)
			authors[a] = author{given: g, family: f}
			nextAuthor += 1 + rng.Intn(3)
		}
		b := Book{
			ID:        fmt.Sprintf("book%04d", i),
			Title:     bookTitle(topic, i),
			Topic:     topic,
			Publisher: publishers[(i*7+i/10)%len(publishers)],
			Year:      1990 + rng.Intn(19),
			Authors:   authors,
		}
		b.TrueAuthors = renderAuthors(authors, styleFull)
		books[i] = b
		w.SetSnapshot(model.Obj(b.ID, AuthorsAttr), b.TrueAuthors)
		w.SetSnapshot(model.Obj(b.ID, TitleAttr), b.Title)
		w.SetSnapshot(model.Obj(b.ID, PublisherAttr), b.Publisher)
		w.SetSnapshot(model.Obj(b.ID, YearAttr), fmt.Sprintf("%d", b.Year))
		w.SetSnapshot(model.Obj(b.ID, TopicAttr), b.Topic)
	}
	return books
}

// sizesFor allocates per-store catalog sizes summing exactly to total, with
// the largest equal to max and the smallest 1 (a long-tailed marketplace).
func sizesFor(rng *rand.Rand, n, total, max int) []int {
	sizes := make([]int, n)
	// Power-law shape with a mild exponent: a marketplace has a fat head
	// and a long tail, but also enough mid-size stores to host the copier
	// network.
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		raw[i] = math.Pow(float64(i+1), -0.8)
		sum += raw[i]
	}
	// The bottom 5% of stores are micro-sellers with 1-3 books (the
	// paper's books-per-store range starts at 1); the rest follow the
	// power law.
	tail := n / 20
	if tail < 1 {
		tail = 1
	}
	remaining := total - n // every store gets at least 1
	for i := range sizes {
		if i >= n-tail {
			sizes[i] = 1 + i%3
			continue
		}
		sizes[i] = 1 + int(float64(remaining)*raw[i]/sum)
		if sizes[i] > max {
			sizes[i] = max
		}
	}
	// Fix the sum exactly: distribute the residue over mid-range stores,
	// leaving the micro-sellers untouched so the minimum stays 1.
	cur := 0
	for _, s := range sizes {
		cur += s
	}
	for cur != total {
		i := rng.Intn(n)
		if sizes[i] <= 3 {
			continue
		}
		if cur < total && sizes[i] < max {
			sizes[i]++
			cur++
		} else if cur > total && sizes[i] > 4 {
			sizes[i]--
			cur--
		}
	}
	// Pin the largest store to max so the reported range matches.
	largest := 0
	for i, s := range sizes {
		if s > sizes[largest] {
			largest = i
		}
		_ = s
	}
	diff := max - sizes[largest]
	sizes[largest] = max
	// Re-balance the diff over mid-range stores.
	for diff != 0 {
		i := rng.Intn(n)
		if i == largest || sizes[i] <= 3 {
			continue
		}
		if diff > 0 && sizes[i] > 4 {
			sizes[i]--
			diff--
		} else if diff < 0 && sizes[i] < max {
			sizes[i]++
			diff++
		}
	}
	return sizes
}

// planGroups returns copier-group sizes whose within-group pair counts sum
// to exactly target: Σ C(g,2) = target. Greedy from the largest group size
// so the store budget (groups need stores with adequate catalogs) stays
// small.
func planGroups(target int) []int {
	var groups []int
	remaining := target
	for _, g := range []int{5, 4, 3} {
		pairs := g * (g - 1) / 2
		for remaining >= pairs {
			groups = append(groups, g)
			remaining -= pairs
		}
	}
	for remaining > 0 {
		groups = append(groups, 2)
		remaining--
	}
	return groups
}

// assignGroups attaches copier groups to stores: each group has one master
// (a store with a big-enough catalog) and size-1 copiers. Returns the
// membership map used to order generation.
func assignGroups(rng *rand.Rand, groups []int, corpus *BookCorpus,
	sizes []int, cfg BookConfig) map[int]int {
	// Sort store indices by size descending; masters come from the top,
	// copiers from stores with size >= MinSharedForDep.
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sizes[idx[a]] > sizes[idx[b]] })
	membership := map[int]int{} // store index -> group id
	// Two cursors: masters come from the big end, copiers from the small
	// end of the eligible range — otherwise copiers would consume the big
	// stores the later groups need for masters.
	front := 0
	back := len(idx) - 1
	takeMaster := func(minSize int) int {
		for front <= back {
			i := idx[front]
			front++
			if sizes[i] >= minSize {
				return i
			}
			return -1 // sorted descending: nothing bigger remains
		}
		return -1
	}
	takeCopier := func(minSize int) int {
		for front <= back {
			i := idx[back]
			back--
			if sizes[i] >= minSize {
				return i
			}
		}
		return -1
	}
	for gid, g := range groups {
		need := cfg.MinSharedForDep
		masterIdx := takeMaster(need * 2)
		if masterIdx < 0 {
			break
		}
		membership[masterIdx] = gid
		master := corpus.Stores[masterIdx]
		members := []model.SourceID{master}
		for k := 1; k < g; k++ {
			ci := takeCopier(need * 2)
			if ci < 0 {
				break
			}
			membership[ci] = gid
			copier := corpus.Stores[ci]
			corpus.MasterOf[copier] = master
			members = append(members, copier)
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				corpus.DependentPairs[model.NewSourcePair(members[a], members[b])] = true
			}
		}
	}
	return membership
}

// generationOrder yields store indices with masters before their copiers.
func generationOrder(corpus *BookCorpus, membership map[int]int) []int {
	var masters, copiers, rest []int
	for i, s := range corpus.Stores {
		if _, isCopier := corpus.MasterOf[s]; isCopier {
			copiers = append(copiers, i)
		} else if _, inGroup := membership[i]; inGroup {
			masters = append(masters, i)
		} else {
			rest = append(rest, i)
		}
	}
	out := append(masters, rest...)
	return append(out, copiers...)
}

// sampleBooks draws a catalog of the given size without replacement,
// weighted by popularity.
func sampleBooks(rng *rand.Rand, nBooks, size int, weights []float64) []int {
	if size >= nBooks {
		all := make([]int, nBooks)
		for i := range all {
			all[i] = i
		}
		return all
	}
	chosen := map[int]bool{}
	out := make([]int, 0, size)
	var total float64
	for _, w := range weights {
		total += w
	}
	for len(out) < size {
		r := rng.Float64() * total
		for i, w := range weights {
			if chosen[i] {
				continue
			}
			r -= w
			if r <= 0 {
				chosen[i] = true
				out = append(out, i)
				total -= w
				break
			}
		}
		// Degenerate numeric tail: fall back to scanning.
		if r > 0 {
			for i := range weights {
				if !chosen[i] {
					chosen[i] = true
					out = append(out, i)
					total -= weights[i]
					break
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// copierCatalog picks the copier's books mostly from the master's catalog
// (at least MinSharedForDep overlap) plus independent extras. Copiers
// prefer the master's most popular books, so two copiers of the same
// master also overlap each other heavily (they are pairwise dependent and
// must share enough books to be analyzable).
func copierCatalog(rng *rand.Rand, masterCatalog []int, size int,
	cfg BookConfig, weights []float64) []int {
	shared := size * 9 / 10
	if shared > len(masterCatalog) {
		shared = len(masterCatalog)
	}
	if shared < cfg.MinSharedForDep {
		shared = min(cfg.MinSharedForDep, len(masterCatalog))
	}
	byPop := make([]int, len(masterCatalog))
	copy(byPop, masterCatalog)
	sort.Slice(byPop, func(a, b int) bool { return weights[byPop[a]] > weights[byPop[b]] })
	chosen := map[int]bool{}
	out := make([]int, 0, size)
	for _, bi := range byPop[:shared] {
		chosen[bi] = true
		out = append(out, bi)
	}
	// Fill the remainder with independent picks.
	nBooks := len(weights)
	for len(out) < size {
		bi := rng.Intn(nBooks)
		if !chosen[bi] {
			chosen[bi] = true
			out = append(out, bi)
		}
	}
	sort.Ints(out)
	return out
}

// independentListing renders the store's own listing for a book: the true
// author list (in the house style) with probability acc, otherwise a
// corruption — usually from the book's shared error pool (real corruptions
// recur: common upstream feeds, common OCR confusions), sometimes a fresh
// store-specific mistake.
func independentListing(rng *rand.Rand, b Book, errorPool [][]author,
	acc float64, houseStyle style) string {
	authors := b.Authors
	if rng.Float64() >= acc {
		if rng.Float64() < 0.95 {
			authors = errorPool[rng.Intn(len(errorPool))]
		} else {
			authors = corruptAuthors(rng, b.Authors, rng.Intn(1<<20))
		}
		// Corrupted listings come from upstream feeds and carry the feed's
		// canonical rendering, not the store's house style — which keeps
		// the distinct-forms count per book in the paper's 1-23 band.
		return renderAuthors(authors, styleFull)
	}
	// Occasionally deviate from the house style (inconsistent catalogs).
	st := houseStyle
	if rng.Float64() < 0.05 {
		st = style(rng.Intn(int(numStyles)))
	}
	return renderAuthors(authors, st)
}

// corruptAuthors produces one corrupted variant of an author list: drop an
// author, misspell a family name, swap in a wrong author, or reorder.
func corruptAuthors(rng *rand.Rand, authors []author, bookIdx int) []author {
	out := make([]author, len(authors))
	copy(out, authors)
	switch rng.Intn(4) {
	case 0: // drop one (if possible)
		if len(out) > 1 {
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		} else {
			out[0].family = misspell(rng, out[0].family)
		}
	case 1: // misspell a family name
		i := rng.Intn(len(out))
		out[i].family = misspell(rng, out[i].family)
	case 2: // wrong author swapped in
		g, f := personName(bookIdx*13 + 7)
		out[rng.Intn(len(out))] = author{given: g, family: f}
	default: // misordered plus a family misspelling (reordering alone is
		// only formatting, which linkage forgives; the misspelling makes
		// it a genuine error)
		if len(out) > 1 {
			out[0], out[len(out)-1] = out[len(out)-1], out[0]
		}
		out[0].family = misspell(rng, out[0].family)
	}
	return out
}

func addListing(d *dataset.Dataset, s model.SourceID, b Book, authorsVal string) error {
	o := model.Obj(b.ID, AuthorsAttr)
	if err := d.Add(model.NewClaim(s, o, authorsVal)); err != nil {
		return err
	}
	// Title, publisher, year and topic are listed faithfully; the
	// conflicting attribute under study is the author list. Fixed
	// attribute order keeps generation deterministic.
	rest := []struct{ attr, v string }{
		{TitleAttr, b.Title},
		{PublisherAttr, b.Publisher},
		{YearAttr, fmt.Sprintf("%d", b.Year)},
		{TopicAttr, b.Topic},
	}
	for _, kv := range rest {
		if err := d.Add(model.NewClaim(s, model.Obj(b.ID, kv.attr), kv.v)); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
