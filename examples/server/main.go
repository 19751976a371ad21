// Server walkthrough: the full serving lifecycle in one program.
//
//  1. Build a dataset (the paper's Table 1 affiliations) and run the
//     expensive precompute once (sourcecurrents.NewSession).
//  2. Write the binary session snapshot — the artifact a server boots from.
//  3. Load the snapshot back (no re-discovery) and register both sessions
//     in an HTTP server on a loopback port.
//  4. Query the server like a client would: /healthz, /answer with and
//     without per-request overrides, /recommend, /accuracy — and show the
//     snapshot-loaded dataset answers byte-identically to the built one.
//
// The same flow from the shell:
//
//	currents snapshot -o data/t1.snap t1.csv
//	currents server -addr :8080 -load data &
//	curl -X POST -d '{"query":[{"entity":"Dong","attribute":"affiliation"}]}' \
//	     http://localhost:8080/v1/t1/answer
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"sourcecurrents"
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

func main() {
	// 1. One-time precompute: truth discovery + dependence detection.
	built, err := sourcecurrents.NewSession(buildDataset(), sourcecurrents.DefaultSessionConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. The snapshot is what a production server ships and boots from;
	// here it stays in memory.
	var snap bytes.Buffer
	if err := built.WriteSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes\n", snap.Len())

	// 3. Cold-start a second session from the snapshot — no re-discovery —
	// and serve both under different names.
	loaded, err := sourcecurrents.LoadSession(bytes.NewReader(snap.Bytes()), sourcecurrents.DefaultSessionConfig())
	if err != nil {
		log.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Register("built", built); err != nil {
		log.Fatal(err)
	}
	if err := reg.Register("loaded", loaded); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(reg, server.Options{})}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// 4. Talk to it over HTTP.
	fmt.Println("healthz:", getBody(base+"/healthz"))

	answer := `{"query":[{"entity":"Dong","attribute":"affiliation"},{"entity":"Halevy","attribute":"affiliation"}]}`
	a := postBody(base+"/v1/built/answer", answer)
	b := postBody(base+"/v1/loaded/answer", answer)
	fmt.Println("answer (built): ", strings.TrimSpace(a))
	fmt.Println("byte-identical from snapshot-loaded dataset:", a == b)

	// Per-request override: probe at most two sources, naive order.
	fmt.Println("answer (by-id, max 2 sources):", strings.TrimSpace(postBody(
		base+"/v1/built/answer",
		`{"query":[{"entity":"Dong","attribute":"affiliation"}],"policy":"by-id","max_sources":2}`)))

	fmt.Println("recommend:", strings.TrimSpace(postBody(base+"/v1/built/recommend", `{"k":2}`)))
	fmt.Println("accuracy:", strings.TrimSpace(getBody(base+"/v1/built/accuracy")))
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
