package xswitch

import "time"

// Topology construction helpers rebuilding the networks the paper ran
// on. Endpoints are attached later (the machines' host interfaces are
// built by the kernel layer); these helpers create switches and trunks
// and return the switch each site's router attaches to.

// Testbed builds the measurement testbed of §9: a three hop (two
// switch) ATM path between two router attachment points.
//
//	routerA --- swA --- swB --- routerB
//
// It returns the fabric and the two attachment switches.
func Testbed(f *Fabric) (swA, swB *Switch) {
	swA = f.mustAddSwitch("sw-A")
	swB = f.mustAddSwitch("sw-B")
	f.ConnectSwitches(swA, swB, DS3(2*time.Millisecond))
	return swA, swB
}

// XunetSite names the five Xunet 2 sites of the paper's Figure 0 (§1):
// Murray Hill plus four universities.
type XunetSite string

// The Xunet 2 sites.
const (
	MurrayHill XunetSite = "mh"
	Berkeley   XunetSite = "ucb"
	Illinois   XunetSite = "uiuc"
	Wisconsin  XunetSite = "wisc"
	Rutgers    XunetSite = "rutgers"
)

// XunetSites lists all five sites.
func XunetSites() []XunetSite {
	return []XunetSite{MurrayHill, Berkeley, Illinois, Wisconsin, Rutgers}
}

// Xunet builds the nationwide Xunet 2 backbone: one switch per site,
// DS3 long-distance trunks with coast-to-coast propagation delays, and
// a 622 Mb/s optically-amplified trunk on the Illinois–Murray Hill
// segment (the paper: "DS3 facilities (at 45Mbps) as well as optically
// amplified lines operating at 622 Mbps").
//
// It returns the per-site switch map; routers attach per site.
func Xunet(f *Fabric) map[XunetSite]*Switch {
	sw := make(map[XunetSite]*Switch, 5)
	for _, s := range XunetSites() {
		sw[s] = f.mustAddSwitch("sw-" + string(s))
	}
	// Approximate one-way propagation delays.
	f.ConnectSwitches(sw[MurrayHill], sw[Rutgers], DS3(1*time.Millisecond))
	f.ConnectSwitches(sw[MurrayHill], sw[Illinois], oc12(6*time.Millisecond))
	f.ConnectSwitches(sw[Illinois], sw[Wisconsin], DS3(2*time.Millisecond))
	f.ConnectSwitches(sw[Illinois], sw[Berkeley], DS3(9*time.Millisecond))
	return sw
}

// SiteRouterAddr is the conventional ATM address of a site's router,
// in the paper's "mh.rt" style.
func SiteRouterAddr(s XunetSite) string { return string(s) + ".rt" }
