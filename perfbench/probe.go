package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// probeItem is one resolved design point the layer probes replay.
type probeItem struct {
	req experiments.PointRequest
	res experiments.PointResult
}

// probeLayers times calls into each service layer's public functions over
// a workload's own points: fingerprinting and features (experiments), a
// memo hit (runcache), warehouse Put, Open and Load, surrogate fit and
// predict, and the server's encoding of a memo-hit /v1/simulate answer and
// the client's decoding of it (see probeEncodeDecode).
func probeLayers(runDir string, items []probeItem, rep *report) error {
	var fpT, featT, memoT, putT, loadT, predT []float64
	dir := filepath.Join(runDir, "probe-warehouse")
	ws, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		return err
	}
	eng := runcache.New[experiments.PointResult]()
	fps := make([]runcache.Fingerprint, len(items))
	blobs := make([][]byte, len(items))
	for i, it := range items {
		t0 := time.Now()
		fp, err := it.req.Fingerprint()
		fpT = append(fpT, us(time.Since(t0)))
		if err != nil {
			ws.Close()
			return err
		}
		t0 = time.Now()
		feat, err := it.req.Features()
		featT = append(featT, us(time.Since(t0)))
		if err != nil {
			ws.Close()
			return err
		}
		blob, err := json.Marshal(it.res)
		if err != nil {
			ws.Close()
			return err
		}
		fps[i], blobs[i] = fp, blob
		t0 = time.Now()
		err = ws.Put(fp, feat, blob)
		putT = append(putT, us(time.Since(t0)))
		if err != nil {
			ws.Close()
			return err
		}

		stored := func() (experiments.PointResult, error) { return it.res, nil }
		eng.DoFeatured(fp, feat, stored) // the first submission resolves, the second is the memo hit timed
		t0 = time.Now()
		_, how, _ := eng.DoFeatured(fp, feat, stored)
		memoT = append(memoT, us(time.Since(t0)))
		if how != runcache.ResolvedMemo {
			rep.fail("runcache probe: second submission of %s resolved as %s, want memo", fp.Short(), how)
		}
	}
	if err := ws.Close(); err != nil {
		return err
	}
	if err := probeEncodeDecode(eng, items, fps, rep); err != nil {
		return err
	}

	t0 := time.Now()
	ws, err = warehouse.Open(dir, warehouse.Options{})
	openS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	defer ws.Close()
	for i, fp := range fps {
		t0 := time.Now()
		blob, ok := ws.Load(fp)
		loadT = append(loadT, us(time.Since(t0)))
		if !ok || !bytes.Equal(blob, blobs[i]) {
			rep.fail("warehouse probe: %s did not load back bit-equal", fp.Short())
		}
	}
	t0 = time.Now()
	model, _, err := experiments.NewStoreSurrogate(ws, surrogate.Options{})
	fitS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("surrogate fit: %w", err)
	}
	for _, it := range items {
		nb := it.req
		nb.Measure += 1000 // an unstored neighbour of a stored point
		feat, err := nb.Features()
		if err != nil {
			return err
		}
		t0 := time.Now()
		model.Predict(feat)
		predT = append(predT, us(time.Since(t0)))
	}

	n := len(items)
	rep.set("experiments.fingerprint_us", median(fpT), n)
	rep.set("experiments.features_us", median(featT), n)
	rep.set("runcache.memo_hit_us", median(memoT), n)
	rep.set("warehouse.put_us", median(putT), n)
	rep.set("warehouse.load_us", median(loadT), n)
	rep.set("warehouse.open_s", openS, 1)
	rep.set("surrogate.fit_s", fitS, 1)
	rep.set("surrogate.predict_p50_us", median(predT), n)
	rep.set("surrogate.predict_p95_us", quantile(predT, 0.95), n)
	return nil
}

// probeEncodeDecode serves each item's /v1/simulate in process through the
// server's own handler over eng, where every item is a memo hit, and times
// the answer's encoding: from the handler writing the status line to its
// return. Each answer is then decoded by server.Client over a transport
// that replays the recorded bytes, timed from the transport handing back
// the response to Simulate returning. server.response_bytes is the mean
// answer size; a serve run replaces it with the sizes its load received.
func probeEncodeDecode(eng *experiments.Engine, items []probeItem, fps []runcache.Fingerprint, rep *report) error {
	srv := server.New(server.Config{Engine: eng, Workers: 1})
	defer srv.Drain()
	var encT, decT, sizes []float64
	for i, it := range items {
		body, err := json.Marshal(server.SimulateRequest{PointRequest: it.req})
		if err != nil {
			return err
		}
		w := &timedWriter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		end := time.Now()
		if w.Code != http.StatusOK {
			return fmt.Errorf("server probe: /v1/simulate of %s: HTTP %d: %s", fps[i].Short(), w.Code, w.Body.Bytes())
		}
		encT = append(encT, us(end.Sub(w.headerAt)))
		sizes = append(sizes, float64(w.Body.Len()))

		rt := &replay{body: w.Body.Bytes()}
		cl := &server.Client{BaseURL: "http://probe", HTTP: &http.Client{Transport: rt}}
		resp, err := cl.Simulate(server.SimulateRequest{PointRequest: it.req})
		decT = append(decT, us(time.Since(rt.returnedAt)))
		if err != nil {
			return fmt.Errorf("client probe: %w", err)
		}
		if resp.Resolution != "memo" || resp.Fingerprint != string(fps[i]) {
			rep.fail("server probe: %s answered as %s with fingerprint %s, want a memo hit", fps[i].Short(), resp.Resolution, resp.Fingerprint)
		}
	}
	n := len(items)
	rep.set("server.encode_us", median(encT), n)
	rep.set("server.response_bytes", mean(sizes), n)
	rep.set("client.decode_us", median(decT), n)
	return nil
}

// timedWriter records when the handler wrote its status line; the server
// encodes the body after that.
type timedWriter struct {
	*httptest.ResponseRecorder
	headerAt time.Time
}

func (w *timedWriter) WriteHeader(code int) {
	w.headerAt = time.Now()
	w.ResponseRecorder.WriteHeader(code)
}

// replay is an http.RoundTripper that answers every request with one
// recorded 200 body and notes when it handed the response back.
type replay struct {
	body       []byte
	returnedAt time.Time
}

func (r *replay) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(bytes.NewReader(r.body)), ContentLength: int64(len(r.body)), Request: req}
	r.returnedAt = time.Now()
	return resp, nil
}
