package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fieldstudy"
)

// TestHTTPFlow drives the full JSON API end to end: submit, list,
// stream events to terminality, fetch the result, and cancel.
func TestHTTPFlow(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit a fieldstudy campaign.
	spec, _ := json.Marshal(Spec{Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet()})
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var view View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Stream events until the campaign finishes; the stream must carry
	// progress and end at a terminal event.
	resp, err = http.Get(srv.URL + "/campaigns/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	resp.Body.Close()
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "submitted") || !strings.Contains(joined, "progress") || !strings.Contains(joined, "done") {
		t.Fatalf("event stream %v missing lifecycle or progress", types)
	}

	// Result endpoint returns the terminal view with the payload.
	resp, err = http.Get(srv.URL + "/campaigns/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	var final View
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.Status != StatusDone || len(final.Result) == 0 {
		t.Fatalf("final view %+v lacks result", final)
	}
	var classes []fieldstudy.ClassStats
	if err := json.Unmarshal(final.Result, &classes); err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("%d classes in result, want 2", len(classes))
	}

	// List shows the campaign.
	resp, err = http.Get(srv.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []View
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != view.ID {
		t.Fatalf("list = %+v", list)
	}

	// Submit a slow campaign and cancel it over HTTP.
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	resp, err = http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var slow View
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/"+slow.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()
	sv := waitTerminal(t, s, slow.ID)
	if sv.Status != StatusCanceled && sv.Status != StatusDone {
		t.Fatalf("cancelled campaign status=%s", sv.Status)
	}

	// Errors: unknown campaign and bad spec.
	resp, err = http.Get(srv.URL + "/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(`{"kind":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPResultBeforeTerminalConflicts pins the result endpoint's
// not-done-yet behavior.
func TestHTTPResultBeforeTerminalConflicts(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	v, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/campaigns/%s/result", srv.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: %d, want 409", resp.StatusCode)
	}
	_ = s.Cancel(v.ID)
	waitTerminal(t, s, v.ID)
}

// TestHTTPSubmitStrictDecoding pins the submit endpoint's input
// bounds: an oversized body is refused with 413, a field Spec does not
// define with 400, and specs using every defined field still submit.
func TestHTTPSubmitStrictDecoding(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) (int, View) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v View
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, v
	}

	oversized := `{"kind":"fieldstudy","checkpoint":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	if code, _ := post(oversized); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", code)
	}
	for _, body := range []string{
		`{"kind":"fieldstudy","seed":1,"wrokers":2}`,
		`{"kind":"fieldstudy","seed":1,"fleet":{"months":2,"dimm_count":5}}`,
	} {
		if code, _ := post(body); code != http.StatusBadRequest {
			t.Fatalf("unknown field in %s: %d, want 400", body, code)
		}
	}

	full, err := json.Marshal(Spec{
		Kind: "fieldstudy", Seed: 3, Workers: 2, CheckpointEvery: 4,
		Checkpoint: "strict.ckpt", DeadlineMS: 60000, MaxRetries: 1,
		RetryBackoffMS: 10, Fleet: testFleet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(full),
		`{"kind":"experiments","seed":1,"workers":1,"experiments":["E1"]}`,
	} {
		code, v := post(body)
		if code != http.StatusAccepted {
			t.Fatalf("valid spec %s: %d, want 202", body, code)
		}
		if fin := waitTerminal(t, s, v.ID); fin.Status != StatusDone {
			t.Fatalf("valid spec %s finished %s: %s", body, fin.Status, fin.Error)
		}
	}
}
