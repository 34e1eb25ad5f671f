// Package workload generates the RUBBoS-like browse-only workload the
// paper drives its testbed with: a fixed population of closed-loop users
// (the paper's "WL x,000" is this population size) cycling between an
// exponentially distributed think time and one interaction chosen from a
// 24-class mix, plus a global ON/OFF burst modulator reproducing the bursty
// arrival behaviour the paper cites from Mi et al. [14].
package workload

import (
	"transientbd/internal/simnet"
)

// Query is one database query template issued by an interaction.
type Query struct {
	// Template names the query class (observable on the wire as the
	// statement shape).
	Template string
	// Work is the nominal CPU demand at the database tier.
	Work simnet.Duration
	// RespBytes is the result-set wire size.
	RespBytes int64
}

// Interaction is one of the workload's request classes: a full web page
// with its per-tier CPU demands and database query sequence.
type Interaction struct {
	// Name is the interaction (page) name.
	Name string
	// Weight is the relative selection probability within the mix.
	Weight float64
	// WebWork is the web tier CPU demand (static content, proxying).
	WebWork simnet.Duration
	// AppPreWork is app-tier CPU before the first query.
	AppPreWork simnet.Duration
	// AppPerQueryWork is app-tier CPU after each query (result handling).
	AppPerQueryWork simnet.Duration
	// AppPostWork is app-tier CPU after the last query (page rendering).
	AppPostWork simnet.Duration
	// ClusterPerQueryWork is the clustering-middleware CPU per query.
	ClusterPerQueryWork simnet.Duration
	// Queries is the sequence of database queries, issued in order.
	Queries []Query
	// AllocBytes is app-tier heap allocation per page (drives GC).
	AllocBytes int64
	// PageBytes is the response size web tier → client.
	PageBytes int64
}

// AppWork returns the total app-tier CPU demand for the interaction.
func (ix Interaction) AppWork() simnet.Duration {
	return ix.AppPreWork + simnet.Duration(len(ix.Queries))*ix.AppPerQueryWork + ix.AppPostWork
}

// DBWork returns the total database CPU demand across the query sequence.
func (ix Interaction) DBWork() simnet.Duration {
	var total simnet.Duration
	for _, q := range ix.Queries {
		total += q.Work
	}
	return total
}

const (
	kb = 1024

	// Shared per-tier demand constants of the browse-only mix. These are
	// the calibration knobs of DESIGN.md §2: at the paper's WL 8,000 they
	// put Tomcat at ≈80% and MySQL at ≈78% average CPU (Fig 3 / Table I),
	// with the app tier the first tier to saturate (knee ≈ WL 11,000).
	webWork         = 600 * simnet.Microsecond
	appPreWork      = 700 * simnet.Microsecond
	appPerQueryWork = 300 * simnet.Microsecond
	appPostWork     = 1200 * simnet.Microsecond
	clusterPerQuery = 150 * simnet.Microsecond
)

// browseRow is the compact spec a mix interaction is expanded from.
type browseRow struct {
	name      string
	weight    float64
	queries   int
	queryWork simnet.Duration // per query
	allocKB   int64
	pageKB    int64
}

// BrowseOnlyMix returns the 24-interaction browse-only mix. Weights,
// query counts and per-query demands are chosen so the weighted averages
// land on the calibration targets (see TestBrowseOnlyMixCalibration):
// ≈3.6 queries/page and ≈0.79 ms/query at the database tier.
func BrowseOnlyMix() []Interaction {
	us := simnet.Microsecond
	rows := []browseRow{
		{"StoriesOfTheDay", 12, 2, 500 * us, 256, 20},
		{"ViewStory", 14, 3, 600 * us, 320, 24},
		{"ViewComment", 10, 4, 800 * us, 384, 18},
		{"BrowseCategories", 6, 1, 400 * us, 128, 8},
		{"BrowseStoriesByCategory", 8, 5, 700 * us, 384, 22},
		{"OlderStories", 5, 4, 900 * us, 320, 20},
		{"BrowseRegions", 3, 1, 400 * us, 128, 8},
		{"BrowseStoriesByRegion", 3, 5, 700 * us, 384, 22},
		{"SearchStories", 5, 6, 1200 * us, 512, 26},
		{"SearchComments", 3, 7, 1300 * us, 512, 24},
		{"SearchAuthors", 2, 4, 1000 * us, 256, 14},
		{"ViewAuthorInfo", 3, 2, 500 * us, 192, 10},
		{"AboutMe", 2, 6, 800 * us, 448, 22},
		{"ViewCommentsOfStory", 6, 4, 750 * us, 384, 20},
		{"ViewFullStory", 4, 5, 800 * us, 448, 28},
		{"StoryTextPage", 3, 2, 450 * us, 192, 12},
		{"CommentTextPage", 2, 3, 600 * us, 224, 12},
		{"TopStoriesByCategory", 2, 5, 750 * us, 320, 20},
		{"TopStoriesByRegion", 1, 5, 750 * us, 320, 20},
		{"LatestComments", 2, 4, 700 * us, 288, 16},
		{"PopularStories", 1, 4, 650 * us, 288, 18},
		{"RandomStory", 1, 2, 500 * us, 192, 14},
		{"UserStoryList", 1, 5, 800 * us, 352, 20},
		{"UserCommentList", 1, 6, 850 * us, 384, 20},
	}
	mix := make([]Interaction, 0, len(rows))
	for _, r := range rows {
		queries := make([]Query, r.queries)
		for q := range queries {
			queries[q] = Query{
				Template:  r.name + "#q" + string(rune('1'+q)),
				Work:      r.queryWork,
				RespBytes: 1200,
			}
		}
		mix = append(mix, Interaction{
			Name:                r.name,
			Weight:              r.weight,
			WebWork:             webWork,
			AppPreWork:          appPreWork,
			AppPerQueryWork:     appPerQueryWork,
			AppPostWork:         appPostWork,
			ClusterPerQueryWork: clusterPerQuery,
			Queries:             queries,
			AllocBytes:          r.allocKB * kb,
			PageBytes:           r.pageKB * kb,
		})
	}
	return mix
}

// MixStats summarizes a mix's weighted averages, used for calibration
// checks and capacity estimates.
type MixStats struct {
	// QueriesPerPage is the weighted mean number of DB queries.
	QueriesPerPage float64
	// DBWorkPerQuery is the weighted mean DB demand per query.
	DBWorkPerQuery simnet.Duration
	// DBWorkPerPage, AppWorkPerPage, WebWorkPerPage, ClusterWorkPerPage
	// are weighted mean per-page demands per tier.
	DBWorkPerPage      simnet.Duration
	AppWorkPerPage     simnet.Duration
	WebWorkPerPage     simnet.Duration
	ClusterWorkPerPage simnet.Duration
}

// Stats computes the weighted averages of a mix.
func Stats(mix []Interaction) MixStats {
	var wSum, qSum, dbWork, appWork, webW, clusterW float64
	for _, ix := range mix {
		w := ix.Weight
		if w <= 0 {
			continue
		}
		wSum += w
		qSum += w * float64(len(ix.Queries))
		dbWork += w * float64(ix.DBWork())
		appWork += w * float64(ix.AppWork())
		webW += w * float64(ix.WebWork)
		clusterW += w * float64(simnet.Duration(len(ix.Queries))*ix.ClusterPerQueryWork)
	}
	if wSum == 0 {
		return MixStats{}
	}
	st := MixStats{
		QueriesPerPage:     qSum / wSum,
		DBWorkPerPage:      simnet.Duration(dbWork / wSum),
		AppWorkPerPage:     simnet.Duration(appWork / wSum),
		WebWorkPerPage:     simnet.Duration(webW / wSum),
		ClusterWorkPerPage: simnet.Duration(clusterW / wSum),
	}
	if qSum > 0 {
		st.DBWorkPerQuery = simnet.Duration(dbWork / qSum)
	}
	return st
}

// ScaleQueryWork returns a deep copy of mix with every query's DB-side
// CPU demand multiplied by factor, leaving the app/web-side work alone.
// Scenario presets use it to shift the bottleneck toward the DB tier
// without re-deriving a whole mix.
func ScaleQueryWork(mix []Interaction, factor float64) []Interaction {
	out := make([]Interaction, len(mix))
	for i, ix := range mix {
		out[i] = ix
		qs := make([]Query, len(ix.Queries))
		for j, q := range ix.Queries {
			q.Work = simnet.Duration(float64(q.Work) * factor)
			qs[j] = q
		}
		out[i].Queries = qs
	}
	return out
}
