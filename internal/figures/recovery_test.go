package figures

import (
	"strings"
	"testing"
)

// TestRecoveryStudySmall runs the lost-work study at the smallest scale
// where the tentpole claim holds (p=16, one crash) and checks the
// acceptance shape: the localized strategy loses strictly less work than
// the global rewind in every feasible cell, and its trajectory matches
// the fault-free run bitwise. (Below ~16 ranks a global rewind on a fast
// network can be legitimately cheaper — discarding 4 ranks' small window
// costs less than one domain's replay — which is exactly the scale story
// the figure tells.)
func TestRecoveryStudySmall(t *testing.T) {
	cfg := quickConfig()
	cfg.RecoveryProcs = []int{16}
	cfg.RecoveryCrashes = []int{1}
	s := NewSuite(cfg)

	res, err := s.recoveryStudy(figureRows(t, s, "recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 3 { // one per network
		t.Fatalf("got %d verdicts, want 3", len(res.Verdicts))
	}
	for _, v := range res.Verdicts {
		if v.GlobalErr != "" {
			t.Errorf("%s p=%d: global rewind unexpectedly infeasible: %s", v.Network, v.P, v.GlobalErr)
			continue
		}
		if !v.LocalWins {
			t.Errorf("%s p=%d: localized lost %.4g, global %.4g — localized must win",
				v.Network, v.P, v.LocalLost, v.GlobalLost)
		}
		if !v.Bitwise {
			t.Errorf("%s p=%d: localized trajectory is not bitwise-identical to the fault-free run",
				v.Network, v.P)
		}
	}
	// Lost-work buckets land on the right strategy: rewind time belongs to
	// the global strategy only, replay time to the localized one only.
	for _, r := range res.Rows {
		switch r.Strategy {
		case "global-rewind":
			if r.Replay != 0 {
				t.Errorf("global row %s p=%d books replay time %g", r.Network, r.P, r.Replay)
			}
		case "localized":
			if r.Rewind != 0 {
				t.Errorf("localized row %s p=%d books rewind time %g", r.Network, r.P, r.Rewind)
			}
		}
	}

	var text, csv strings.Builder
	if err := textRecovery(&text, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "localized wins") {
		t.Fatalf("render lost the verdict table:\n%s", text.String())
	}
	if err := csvRecovery(&csv, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "rewind_s,replay_s,park_s") {
		t.Fatalf("csv lost the breakdown columns:\n%s", csv.String())
	}
}
