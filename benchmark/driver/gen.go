package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os/exec"
	"strconv"
)

// Linear Road input shared by five workloads: 2 roads x 50 segments
// = 100 (xway, dir, seg) partitions, one tick of ~4 350 position
// reports every 30 application seconds. 1 800 s gives 60 ticks and
// 261 000 events (13 MB): half the stream the issue sized, so that a
// run of run_seconds fits twice as many passes and the medians rest
// on more than three values (see README, "Sizing").
var linearRoadArgs = []string{"-roads", "2", "-segments", "50", "-duration", "1800"}

// genLinearRoad runs the repository's own generator CLI.
func genLinearRoad(lrgen string, seed int64) ([]byte, error) {
	args := append(append([]string(nil), linearRoadArgs...), "-seed", strconv.FormatInt(seed, 10))
	return output(lrgen, args...)
}

// genTollModel prints the Linear Road toll/accident model with the
// query workload replicated four times, as the paper's experiments do
// to scale query load.
func genTollModel(lrgen string) ([]byte, error) {
	return output(lrgen, "-model", "-replicas", "4")
}

func output(bin string, args ...string) ([]byte, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %v: %w\n%s", bin, args, err, stderr.Bytes())
	}
	return stdout.Bytes(), nil
}

// The skew-churn stream (models/skewchurn.caesar): what Linear Road
// is not. Keys are Zipf-distributed so that one partition takes a
// fifth of the events and sharding cannot spread it; ticks are 17
// times smaller, so every per-tick cost (batch hand-off, ordered
// merge, flush) is paid 17 times as often per event; and each key's
// context switches every few ticks, so window open/close and history
// reset are the context cost, where Linear Road opens two windows
// per partition in a whole run.
const (
	skewKeys       = 4096
	skewZipfS      = 1.2 // hottest key draws ~21 % of events
	skewTickEvents = 256
	skewTicks      = 1200 // 307 200 events, ~0.6 s a pass at the seed commit
	skewValues     = 64
	// Only the 64 most frequent keys (72 % of events) switch context:
	// a key seen once in fifty ticks has no cadence of ticks to speak
	// of, and would switch on every event it sends.
	skewChurnKeys    = 64
	skewWindowMin    = 3 // a window lasts 3..9 ticks before the key's
	skewWindowSpread = 7 // next event switches it; observed mean ~7
)

// genSkewChurn renders `Reading|tick|key|val|ctl` lines; keys are
// Zipf ranks, 0 the most frequent. ctl 1 moves the key's partition to
// context busy, 2 back to calm, 0 leaves it; the generator owns the
// schedule so the model needs no state to churn.
func genSkewChurn(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, skewZipfS, 1, skewKeys-1)
	busy := make([]bool, skewKeys)
	switchAt := make([]int, skewKeys) // 0 = key not seen yet
	buf := make([]byte, 0, skewTicks*skewTickEvents*20)
	for t := 1; t <= skewTicks; t++ {
		for i := 0; i < skewTickEvents; i++ {
			key := int(zipf.Uint64())
			val := rng.Intn(skewValues)
			ctl := 0
			switch {
			case key >= skewChurnKeys:
			case switchAt[key] == 0:
				switchAt[key] = t + 1 + rng.Intn(skewWindowSpread)
			case t >= switchAt[key]:
				busy[key] = !busy[key]
				ctl = 2
				if busy[key] {
					ctl = 1
				}
				switchAt[key] = t + skewWindowMin + rng.Intn(skewWindowSpread)
			}
			buf = append(buf, "Reading|"...)
			buf = strconv.AppendInt(buf, int64(t), 10)
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, int64(key), 10)
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, int64(val), 10)
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, int64(ctl), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}
