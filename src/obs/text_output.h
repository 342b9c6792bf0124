/**
 * @file
 * Helpers shared by the obs layer's text artifacts (metrics JSON,
 * event JSONL, Chrome traces, time-series tapes, crash manifests).
 */

#ifndef DCBATT_OBS_TEXT_OUTPUT_H_
#define DCBATT_OBS_TEXT_OUTPUT_H_

#include <string>
#include <string_view>

namespace dcbatt::obs {

/** Append @p text to @p out as a quoted, escaped JSON string. */
void appendJsonString(std::string &out, std::string_view text);

/** Write @p doc to @p path (fatal if the file cannot be opened). */
void writeTextFile(const std::string &path, std::string_view doc);

} // namespace dcbatt::obs

#endif // DCBATT_OBS_TEXT_OUTPUT_H_
