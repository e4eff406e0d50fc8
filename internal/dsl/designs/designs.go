// Package designs holds the canonical DiaSpec designs of the paper's
// applications, shared by tests, examples, the code generator and the
// benchmark harness.
//
// The texts are the paper's Figures 5–8 with its internal inconsistencies
// repaired so that the designs pass semantic checking (the paper's listings
// are illustrative and do not cross-reference exactly):
//
//   - Figure 7 queries `currentElectricConsumption` from Cooker, but
//     Figure 5 declares the source as `consumption`; we use `consumption`.
//   - Figure 7 names the device `TvPrompter`, Figure 5 declares `Prompter`;
//     we use `Prompter` and keep the TV prompter of the scenario in the
//     device's deployment attributes instead.
//   - Figure 7's TurnOff controller does `off`, Figure 5 declares `Off`;
//     facet references are case-sensitive here, so we use `Off`.
//   - Figure 8's ParkingEntrancePanelController does `udpate` (sic); we use
//     `update`.
//   - The `...` ellipses in Figure 6's enumerations are filled with
//     concrete values.
package designs

// Cooker is the complete design of the cooker monitoring application
// (paper Figures 3, 5 and 7): home safety for older adults.
const Cooker = `
// Devices (Figure 5).
device Clock {
	source tickSecond as Integer;
	source tickMinute as Integer;
	source tickHour as Integer;
}

device Cooker {
	source consumption as Float;
	action On;
	action Off;
}

device Prompter {
	source answer as String indexed by questionId as String;
	action askQuestion(question as String);
}

// Application design (Figure 7).
context Alert as Integer {
	when provided tickSecond from Clock
	get consumption from Cooker
	maybe publish;
}

controller Notify {
	when provided Alert
	do askQuestion on Prompter;
}

context RemoteTurnOff as Boolean {
	when provided answer from Prompter
	get consumption from Cooker
	maybe publish;
}

controller TurnOff {
	when provided RemoteTurnOff
	do Off on Cooker;
}
`

// Parking is the complete design of the parking management application
// (paper Figures 4, 6 and 8): city-scale sensor orchestration.
const Parking = `
// Devices (Figure 6).
device PresenceSensor {
	attribute parkingLot as ParkingLotEnum;
	source presence as Boolean;
}

device DisplayPanel {
	action update(status as String);
}

device ParkingEntrancePanel extends DisplayPanel {
	attribute location as ParkingLotEnum;
}

device CityEntrancePanel extends DisplayPanel {
	attribute location as CityEntranceEnum;
}

device Messenger {
	action sendMessage(message as String);
}

enumeration ParkingLotEnum {
	A22, B16, D6, E31, F12
}

enumeration CityEntranceEnum {
	NORTH_EAST_14Y, SOUTH_EAST_1A, WEST_9B
}

// Application design (Figure 8).
context ParkingAvailability as Availability[] {
	when periodic presence from PresenceSensor <10 min>
	grouped by parkingLot
	with map as Boolean reduce as Integer
	always publish;
}

context ParkingUsagePattern as UsagePattern[] {
	when periodic presence from PresenceSensor <1 hr>
	grouped by parkingLot
	no publish;

	when required;
}

context AverageOccupancy as ParkingOccupancy[] {
	when periodic presence from PresenceSensor <10 min>
	grouped by parkingLot every <24 hr>
	always publish;
}

context ParkingSuggestion as ParkingLotEnum[] {
	when provided ParkingAvailability
	get ParkingUsagePattern
	always publish;
}

controller ParkingEntrancePanelController {
	when provided ParkingAvailability
	do update on ParkingEntrancePanel;
}

controller CityEntrancePanelController {
	when provided ParkingSuggestion
	do update on CityEntrancePanel;
}

controller MessengerController {
	when provided AverageOccupancy
	do sendMessage on Messenger;
}

structure Availability {
	parkingLot as ParkingLotEnum;
	count as Integer;
}

structure UsagePattern {
	parkingLot as ParkingLotEnum;
	level as UsagePatternEnum;
}

structure ParkingOccupancy {
	parkingLot as ParkingLotEnum;
	occupancy as Float;
}

enumeration UsagePatternEnum { HIGH, MODERATE, LOW }
`

// Avionics is an SCC design for the paper's third cited domain (§I, §III,
// ref [9]): an automated-pilot-style control loop. The paper gives no
// listing for it, so this design is constructed per the avionics case
// study's description: periodic sensing of flight parameters, a consolidated
// flight-state context, and controllers actuating control surfaces with QoS
// constraints handled by the runtime.
const Avionics = `
device AirDataComputer {
	attribute position as AdcPositionEnum;
	source airspeed as Float;
	source altitude as Float;
}

device AttitudeSensor {
	attribute axis as AxisEnum;
	source angle as Float;
}

device ControlSurface {
	attribute surface as SurfaceEnum;
	action deflect(degrees as Float);
}

device AutopilotPanel {
	source engaged as Boolean;
	source targetAltitude as Float;
	action annunciate(message as String);
}

enumeration AdcPositionEnum { LEFT, RIGHT, STANDBY }
enumeration AxisEnum { PITCH, ROLL, YAW }
enumeration SurfaceEnum { ELEVATOR, AILERON_L, AILERON_R, RUDDER }

structure FlightState {
	airspeed as Float;
	altitude as Float;
	pitch as Float;
	roll as Float;
}

structure SurfaceCommand {
	surface as SurfaceEnum;
	degrees as Float;
}

context FlightStateEstimator as FlightState {
	when periodic airspeed from AirDataComputer <1 sec>
	grouped by position
	no publish;

	when required;
}

context AttitudeMonitor as Float[] {
	when periodic angle from AttitudeSensor <1 sec>
	grouped by axis
	always publish;
}

context AltitudeHold as SurfaceCommand[] {
	when provided AttitudeMonitor
	get FlightStateEstimator
	get targetAltitude from AutopilotPanel
	maybe publish;
}

context EnvelopeProtection as String {
	when provided AttitudeMonitor
	get FlightStateEstimator
	maybe publish;
}

controller SurfaceActuation {
	when provided AltitudeHold
	do deflect on ControlSurface;
}

controller CrewAlerting {
	when provided EnvelopeProtection
	do annunciate on AutopilotPanel;
}
`
