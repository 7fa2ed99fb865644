//go:build !unix

package main

import "time"

func cpuTime() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }
