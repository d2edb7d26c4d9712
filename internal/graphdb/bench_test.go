package graphdb

import "testing"

// buildAnalytics builds the neo4j-analytics graph shape: users following
// users at square offsets, users in four regions, and posts attached to
// users round-robin.
func buildAnalytics(tb testing.TB, users, follows, posts int) (*Graph, []NodeID) {
	tb.Helper()
	g := New()
	tx := g.WriteTx()
	ids := make([]NodeID, users)
	for i := range ids {
		id, err := tx.CreateNode("User", map[string]any{"region": i % 4})
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < users; i++ {
		for k := 1; k <= follows; k++ {
			if err := tx.Relate(ids[i], ids[(i+k*k)%users], "FOLLOWS", nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for p := 0; p < posts; p++ {
		id, err := tx.CreateNode("Post", map[string]any{"q": p})
		if err != nil {
			tb.Fatal(err)
		}
		if err := tx.Relate(ids[(p*31)%users], id, "POSTED", nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return g, ids
}

// The benchmarks run on the graph neo4j-analytics builds at size 1.25:
// 375 users with 6 FOLLOWS edges each, plus 75 posts.

func BenchmarkMatch(b *testing.B) {
	g, _ := buildAnalytics(b, 375, 6, 75)
	b.ReportAllocs()
	for b.Loop() {
		if rows := g.Match("User", "FOLLOWS", "User"); len(rows) != 375*6 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g, ids := buildAnalytics(b, 375, 6, 75)
	b.ReportAllocs()
	for b.Loop() {
		if d := g.ShortestPath(ids[0], ids[len(ids)/2], "FOLLOWS"); d < 0 {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkTopDegree(b *testing.B) {
	g, _ := buildAnalytics(b, 375, 6, 75)
	b.ReportAllocs()
	for b.Loop() {
		if top := g.TopDegree("User", 5); len(top) != 5 {
			b.Fatalf("%d rows", len(top))
		}
	}
}
