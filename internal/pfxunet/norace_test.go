//go:build !race

package pfxunet_test

const raceEnabled = false
