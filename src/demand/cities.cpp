#include "demand/cities.h"

#include <algorithm>
#include <string_view>

#include "geo/geodesy.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::demand {

namespace {

constexpr double M = 1.0e6; // people per "million"

// Approximate metro populations (2020s) and Gaussian footprint sigmas.
// Compact high-density metros (South/East Asia, Africa) get small sigmas;
// sprawling metros (North America, Australia) get large ones.
constexpr city k_cities[] = {
    // --- East Asia ---
    {"Tokyo", 35.69, 139.69, 37.0 * M, 0.40},
    {"Osaka", 34.69, 135.50, 19.0 * M, 0.30},
    {"Nagoya", 35.18, 136.91, 9.5 * M, 0.30},
    {"Fukuoka", 33.59, 130.40, 5.5 * M, 0.25},
    {"Sapporo", 43.06, 141.35, 2.7 * M, 0.25},
    {"Seoul", 37.57, 126.98, 25.5 * M, 0.30},
    {"Busan", 35.18, 129.08, 7.5 * M, 0.25},
    {"Pyongyang", 39.02, 125.74, 3.2 * M, 0.25},
    {"Shanghai", 31.23, 121.47, 29.2 * M, 0.30},
    {"Beijing", 39.90, 116.40, 21.8 * M, 0.35},
    {"Chongqing", 29.56, 106.55, 17.3 * M, 0.35},
    {"Tianjin", 39.34, 117.36, 14.2 * M, 0.30},
    {"Guangzhou", 23.13, 113.26, 14.0 * M, 0.25},
    {"Shenzhen", 22.54, 114.06, 13.1 * M, 0.20},
    {"Chengdu", 30.57, 104.07, 11.2 * M, 0.30},
    {"Wuhan", 30.59, 114.31, 9.0 * M, 0.30},
    {"Dongguan", 23.02, 113.75, 8.4 * M, 0.20},
    {"Xian", 34.34, 108.94, 8.5 * M, 0.30},
    {"Hangzhou", 30.27, 120.15, 8.2 * M, 0.30},
    {"Foshan", 23.02, 113.11, 7.9 * M, 0.20},
    {"Nanjing", 32.06, 118.80, 7.7 * M, 0.30},
    {"Shenyang", 41.80, 123.43, 7.2 * M, 0.30},
    {"Qingdao", 36.07, 120.38, 6.8 * M, 0.30},
    {"Suzhou", 31.30, 120.58, 6.7 * M, 0.25},
    {"Harbin", 45.80, 126.53, 6.0 * M, 0.30},
    {"Zhengzhou", 34.75, 113.63, 6.0 * M, 0.30},
    {"Shantou", 23.35, 116.68, 5.6 * M, 0.20},
    {"Jinan", 36.65, 117.12, 5.5 * M, 0.30},
    {"Changsha", 28.23, 112.94, 5.3 * M, 0.30},
    {"Kunming", 25.04, 102.72, 5.2 * M, 0.30},
    {"Dalian", 38.91, 121.60, 5.2 * M, 0.25},
    {"Taipei", 25.03, 121.57, 9.0 * M, 0.25},
    {"Kaohsiung", 22.63, 120.30, 2.8 * M, 0.20},
    {"Hong Kong", 22.32, 114.17, 7.5 * M, 0.15},
    {"Ulaanbaatar", 47.89, 106.91, 1.6 * M, 0.25},
    // --- South Asia ---
    {"Delhi", 28.61, 77.21, 32.9 * M, 0.30},
    {"Mumbai", 19.08, 72.88, 21.3 * M, 0.18},
    {"Dhaka", 23.81, 90.41, 23.2 * M, 0.16},
    {"Kolkata", 22.57, 88.36, 15.6 * M, 0.22},
    {"Bangalore", 12.97, 77.59, 13.6 * M, 0.25},
    {"Chennai", 13.08, 80.27, 11.8 * M, 0.22},
    {"Hyderabad", 17.38, 78.48, 10.8 * M, 0.25},
    {"Ahmedabad", 23.02, 72.57, 8.6 * M, 0.22},
    {"Pune", 18.52, 73.86, 7.2 * M, 0.25},
    {"Surat", 21.17, 72.83, 8.1 * M, 0.18},
    {"Jaipur", 26.91, 75.79, 4.3 * M, 0.22},
    {"Lucknow", 26.85, 80.95, 4.0 * M, 0.22},
    {"Kanpur", 26.45, 80.33, 3.2 * M, 0.20},
    {"Nagpur", 21.15, 79.09, 3.1 * M, 0.22},
    {"Patna", 25.59, 85.14, 2.6 * M, 0.18},
    {"Karachi", 24.86, 67.01, 17.6 * M, 0.22},
    {"Lahore", 31.55, 74.34, 13.5 * M, 0.22},
    {"Faisalabad", 31.42, 73.08, 3.8 * M, 0.20},
    {"Rawalpindi", 33.60, 73.04, 2.6 * M, 0.20},
    {"Islamabad", 33.69, 73.06, 1.2 * M, 0.20},
    {"Chittagong", 22.36, 91.78, 5.4 * M, 0.16},
    {"Colombo", 6.93, 79.85, 2.6 * M, 0.20},
    {"Kathmandu", 27.72, 85.32, 3.0 * M, 0.15},
    {"Kabul", 34.56, 69.21, 4.6 * M, 0.20},
    // --- Southeast Asia ---
    {"Jakarta", -6.21, 106.85, 33.4 * M, 0.35},
    {"Surabaya", -7.26, 112.75, 6.5 * M, 0.22},
    {"Bandung", -6.92, 107.61, 7.0 * M, 0.20},
    {"Medan", 3.59, 98.67, 3.4 * M, 0.20},
    {"Semarang", -6.97, 110.42, 2.1 * M, 0.18},
    {"Manila", 14.60, 120.98, 14.7 * M, 0.20},
    {"Cebu", 10.32, 123.89, 3.0 * M, 0.18},
    {"Bangkok", 13.76, 100.50, 17.1 * M, 0.30},
    {"Ho Chi Minh City", 10.82, 106.63, 14.3 * M, 0.25},
    {"Hanoi", 21.03, 105.85, 8.4 * M, 0.25},
    {"Da Nang", 16.05, 108.21, 1.2 * M, 0.15},
    {"Kuala Lumpur", 3.14, 101.69, 8.6 * M, 0.25},
    {"Singapore", 1.35, 103.82, 6.0 * M, 0.12},
    {"Yangon", 16.87, 96.20, 5.7 * M, 0.22},
    {"Phnom Penh", 11.56, 104.92, 2.3 * M, 0.18},
    {"Vientiane", 17.98, 102.63, 1.0 * M, 0.18},
    // --- Middle East & Central Asia ---
    {"Istanbul", 41.01, 28.98, 15.8 * M, 0.28},
    {"Ankara", 39.93, 32.86, 5.3 * M, 0.25},
    {"Izmir", 38.42, 27.14, 3.1 * M, 0.22},
    {"Tehran", 35.69, 51.39, 9.5 * M, 0.25},
    {"Mashhad", 36.26, 59.62, 3.4 * M, 0.22},
    {"Isfahan", 32.65, 51.67, 2.2 * M, 0.20},
    {"Baghdad", 33.31, 44.37, 7.5 * M, 0.22},
    {"Riyadh", 24.71, 46.68, 7.7 * M, 0.28},
    {"Jeddah", 21.49, 39.19, 4.8 * M, 0.22},
    {"Dubai", 25.20, 55.27, 3.6 * M, 0.22},
    {"Abu Dhabi", 24.45, 54.38, 1.5 * M, 0.20},
    {"Kuwait City", 29.38, 47.98, 3.2 * M, 0.20},
    {"Doha", 25.29, 51.53, 2.4 * M, 0.18},
    {"Tel Aviv", 32.09, 34.78, 4.4 * M, 0.20},
    {"Jerusalem", 31.77, 35.22, 1.3 * M, 0.15},
    {"Amman", 31.95, 35.93, 2.2 * M, 0.18},
    {"Beirut", 33.89, 35.50, 2.4 * M, 0.15},
    {"Damascus", 33.51, 36.29, 2.5 * M, 0.18},
    {"Sanaa", 15.35, 44.21, 3.1 * M, 0.18},
    {"Muscat", 23.59, 58.41, 1.6 * M, 0.20},
    {"Baku", 40.41, 49.87, 2.4 * M, 0.20},
    {"Tbilisi", 41.72, 44.79, 1.2 * M, 0.18},
    {"Yerevan", 40.18, 44.51, 1.1 * M, 0.18},
    {"Tashkent", 41.30, 69.24, 2.9 * M, 0.22},
    {"Almaty", 43.26, 76.93, 2.1 * M, 0.20},
    {"Astana", 51.17, 71.43, 1.3 * M, 0.20},
    {"Bishkek", 42.87, 74.59, 1.1 * M, 0.18},
    {"Dushanbe", 38.56, 68.79, 1.0 * M, 0.18},
    // --- Europe ---
    {"Moscow", 55.76, 37.62, 17.3 * M, 0.35},
    {"Saint Petersburg", 59.93, 30.34, 5.6 * M, 0.28},
    {"Novosibirsk", 55.01, 82.94, 1.7 * M, 0.22},
    {"Yekaterinburg", 56.84, 60.65, 1.5 * M, 0.22},
    {"Kazan", 55.80, 49.11, 1.3 * M, 0.20},
    {"London", 51.51, -0.13, 14.4 * M, 0.35},
    {"Birmingham", 52.48, -1.90, 3.1 * M, 0.22},
    {"Manchester", 53.48, -2.24, 2.9 * M, 0.22},
    {"Glasgow", 55.86, -4.25, 1.9 * M, 0.20},
    {"Dublin", 53.35, -6.26, 1.5 * M, 0.22},
    {"Paris", 48.86, 2.35, 13.1 * M, 0.35},
    {"Lyon", 45.76, 4.84, 2.4 * M, 0.22},
    {"Marseille", 43.30, 5.37, 1.9 * M, 0.20},
    {"Berlin", 52.52, 13.41, 5.0 * M, 0.28},
    {"Hamburg", 53.55, 9.99, 2.8 * M, 0.25},
    {"Munich", 48.14, 11.58, 3.0 * M, 0.25},
    {"Cologne", 50.94, 6.96, 3.6 * M, 0.25},
    {"Frankfurt", 50.11, 8.68, 2.9 * M, 0.25},
    {"Stuttgart", 48.78, 9.18, 2.8 * M, 0.22},
    {"Madrid", 40.42, -3.70, 6.9 * M, 0.30},
    {"Barcelona", 41.39, 2.17, 5.7 * M, 0.25},
    {"Lisbon", 38.72, -9.14, 3.0 * M, 0.22},
    {"Rome", 41.90, 12.50, 4.3 * M, 0.25},
    {"Milan", 45.46, 9.19, 5.3 * M, 0.28},
    {"Naples", 40.85, 14.27, 3.1 * M, 0.20},
    {"Amsterdam", 52.37, 4.90, 2.9 * M, 0.25},
    {"Rotterdam", 51.92, 4.48, 1.9 * M, 0.20},
    {"Brussels", 50.85, 4.35, 2.6 * M, 0.22},
    {"Vienna", 48.21, 16.37, 2.9 * M, 0.22},
    {"Zurich", 47.38, 8.54, 1.5 * M, 0.20},
    {"Warsaw", 52.23, 21.01, 3.1 * M, 0.25},
    {"Krakow", 50.06, 19.94, 1.3 * M, 0.20},
    {"Prague", 50.08, 14.44, 2.2 * M, 0.22},
    {"Budapest", 47.50, 19.04, 2.5 * M, 0.22},
    {"Bucharest", 44.43, 26.10, 2.2 * M, 0.22},
    {"Sofia", 42.70, 23.32, 1.5 * M, 0.20},
    {"Belgrade", 44.79, 20.45, 1.7 * M, 0.20},
    {"Athens", 37.98, 23.73, 3.6 * M, 0.22},
    {"Kyiv", 50.45, 30.52, 3.5 * M, 0.25},
    {"Kharkiv", 49.99, 36.23, 1.4 * M, 0.20},
    {"Minsk", 53.90, 27.57, 2.0 * M, 0.22},
    {"Stockholm", 59.33, 18.07, 2.4 * M, 0.25},
    {"Gothenburg", 57.71, 11.97, 1.0 * M, 0.20},
    {"Oslo", 59.91, 10.75, 1.6 * M, 0.22},
    {"Copenhagen", 55.68, 12.57, 2.1 * M, 0.22},
    {"Helsinki", 60.17, 24.94, 1.5 * M, 0.22},
    {"Riga", 56.95, 24.11, 0.9 * M, 0.18},
    {"Vilnius", 54.69, 25.28, 0.7 * M, 0.18},
    {"Tallinn", 59.44, 24.75, 0.6 * M, 0.18},
    {"Reykjavik", 64.15, -21.94, 0.24 * M, 0.20},
    // --- Africa ---
    {"Cairo", 30.04, 31.24, 22.2 * M, 0.25},
    {"Alexandria", 31.20, 29.92, 5.6 * M, 0.20},
    {"Lagos", 6.52, 3.38, 15.9 * M, 0.22},
    {"Kano", 12.00, 8.52, 4.4 * M, 0.20},
    {"Ibadan", 7.38, 3.95, 3.8 * M, 0.20},
    {"Abuja", 9.06, 7.50, 3.8 * M, 0.22},
    {"Kinshasa", -4.44, 15.27, 16.3 * M, 0.25},
    {"Luanda", -8.84, 13.23, 9.3 * M, 0.22},
    {"Johannesburg", -26.20, 28.05, 10.5 * M, 0.30},
    {"Cape Town", -33.92, 18.42, 4.8 * M, 0.25},
    {"Durban", -29.86, 31.03, 3.2 * M, 0.22},
    {"Nairobi", -1.29, 36.82, 5.1 * M, 0.22},
    {"Dar es Salaam", -6.79, 39.21, 7.4 * M, 0.22},
    {"Kampala", 0.35, 32.58, 3.7 * M, 0.20},
    {"Addis Ababa", 9.02, 38.75, 5.5 * M, 0.22},
    {"Khartoum", 15.50, 32.56, 6.3 * M, 0.22},
    {"Accra", 5.60, -0.19, 4.2 * M, 0.22},
    {"Abidjan", 5.36, -4.01, 5.6 * M, 0.22},
    {"Dakar", 14.72, -17.47, 3.3 * M, 0.20},
    {"Bamako", 12.64, -8.00, 2.9 * M, 0.20},
    {"Ouagadougou", 12.37, -1.52, 3.1 * M, 0.20},
    {"Casablanca", 33.57, -7.59, 3.8 * M, 0.22},
    {"Algiers", 36.75, 3.06, 2.9 * M, 0.22},
    {"Tunis", 36.81, 10.18, 2.4 * M, 0.20},
    {"Tripoli", 32.89, 13.19, 1.2 * M, 0.20},
    {"Maputo", -25.97, 32.57, 1.8 * M, 0.20},
    {"Harare", -17.83, 31.05, 2.2 * M, 0.20},
    {"Lusaka", -15.39, 28.32, 2.9 * M, 0.20},
    {"Antananarivo", -18.88, 47.51, 3.7 * M, 0.18},
    {"Mogadishu", 2.05, 45.32, 2.6 * M, 0.18},
    {"Douala", 4.05, 9.70, 3.9 * M, 0.20},
    {"Yaounde", 3.87, 11.52, 4.2 * M, 0.20},
    // --- North America ---
    {"New York", 40.71, -74.01, 19.8 * M, 0.45},
    {"Los Angeles", 34.05, -118.24, 12.9 * M, 0.50},
    {"Chicago", 41.88, -87.63, 9.3 * M, 0.40},
    {"Dallas", 32.78, -96.80, 7.9 * M, 0.45},
    {"Houston", 29.76, -95.37, 7.3 * M, 0.45},
    {"Washington", 38.91, -77.04, 6.4 * M, 0.40},
    {"Philadelphia", 39.95, -75.17, 6.2 * M, 0.38},
    {"Miami", 25.76, -80.19, 6.2 * M, 0.35},
    {"Atlanta", 33.75, -84.39, 6.2 * M, 0.45},
    {"Boston", 42.36, -71.06, 4.9 * M, 0.35},
    {"Phoenix", 33.45, -112.07, 5.0 * M, 0.45},
    {"San Francisco", 37.77, -122.42, 4.7 * M, 0.35},
    {"Seattle", 47.61, -122.33, 4.0 * M, 0.35},
    {"San Diego", 32.72, -117.16, 3.3 * M, 0.30},
    {"Minneapolis", 44.98, -93.27, 3.7 * M, 0.35},
    {"Denver", 39.74, -104.99, 3.0 * M, 0.35},
    {"Detroit", 42.33, -83.05, 4.3 * M, 0.35},
    {"Tampa", 27.95, -82.46, 3.2 * M, 0.32},
    {"St. Louis", 38.63, -90.20, 2.8 * M, 0.32},
    {"Baltimore", 39.29, -76.61, 2.8 * M, 0.30},
    {"Charlotte", 35.23, -80.84, 2.7 * M, 0.32},
    {"Orlando", 28.54, -81.38, 2.7 * M, 0.32},
    {"San Antonio", 29.42, -98.49, 2.6 * M, 0.32},
    {"Portland", 45.52, -122.68, 2.5 * M, 0.30},
    {"Pittsburgh", 40.44, -80.00, 2.4 * M, 0.30},
    {"Sacramento", 38.58, -121.49, 2.4 * M, 0.30},
    {"Las Vegas", 36.17, -115.14, 2.3 * M, 0.28},
    {"Austin", 30.27, -97.74, 2.4 * M, 0.32},
    {"Kansas City", 39.10, -94.58, 2.2 * M, 0.30},
    {"Salt Lake City", 40.76, -111.89, 1.3 * M, 0.25},
    {"Anchorage", 61.22, -149.90, 0.4 * M, 0.25},
    {"Honolulu", 21.31, -157.86, 1.0 * M, 0.18},
    {"Toronto", 43.65, -79.38, 6.7 * M, 0.35},
    {"Montreal", 45.50, -73.57, 4.4 * M, 0.32},
    {"Vancouver", 49.28, -123.12, 2.8 * M, 0.28},
    {"Calgary", 51.05, -114.07, 1.6 * M, 0.25},
    {"Edmonton", 53.55, -113.49, 1.5 * M, 0.25},
    {"Ottawa", 45.42, -75.70, 1.5 * M, 0.25},
    {"Winnipeg", 49.90, -97.14, 0.9 * M, 0.22},
    {"Mexico City", 19.43, -99.13, 22.0 * M, 0.30},
    {"Guadalajara", 20.66, -103.35, 5.4 * M, 0.25},
    {"Monterrey", 25.69, -100.32, 5.3 * M, 0.25},
    {"Puebla", 19.04, -98.21, 3.3 * M, 0.22},
    {"Tijuana", 32.51, -117.04, 2.2 * M, 0.22},
    {"Havana", 23.11, -82.37, 2.1 * M, 0.20},
    {"Santo Domingo", 18.49, -69.93, 3.5 * M, 0.20},
    {"Port-au-Prince", 18.54, -72.34, 2.9 * M, 0.18},
    {"Guatemala City", 14.63, -90.51, 3.1 * M, 0.20},
    {"San Jose CR", 9.93, -84.08, 1.6 * M, 0.18},
    {"Panama City", 8.98, -79.52, 2.0 * M, 0.18},
    {"San Salvador", 13.69, -89.22, 1.6 * M, 0.18},
    {"Tegucigalpa", 14.07, -87.19, 1.5 * M, 0.18},
    {"Managua", 12.11, -86.24, 1.1 * M, 0.18},
    // --- South America ---
    {"Sao Paulo", -23.55, -46.63, 22.6 * M, 0.35},
    {"Rio de Janeiro", -22.91, -43.17, 13.7 * M, 0.30},
    {"Belo Horizonte", -19.92, -43.94, 6.1 * M, 0.28},
    {"Brasilia", -15.79, -47.88, 4.8 * M, 0.28},
    {"Salvador", -12.97, -38.50, 4.0 * M, 0.22},
    {"Fortaleza", -3.72, -38.54, 4.1 * M, 0.22},
    {"Recife", -8.05, -34.88, 4.2 * M, 0.22},
    {"Porto Alegre", -30.03, -51.22, 4.3 * M, 0.25},
    {"Curitiba", -25.43, -49.27, 3.7 * M, 0.25},
    {"Manaus", -3.10, -60.03, 2.7 * M, 0.20},
    {"Buenos Aires", -34.60, -58.38, 15.4 * M, 0.32},
    {"Cordoba", -31.42, -64.18, 1.6 * M, 0.22},
    {"Rosario", -32.95, -60.64, 1.4 * M, 0.20},
    {"Santiago", -33.45, -70.67, 6.9 * M, 0.28},
    {"Lima", -12.05, -77.04, 11.2 * M, 0.25},
    {"Bogota", 4.71, -74.07, 11.3 * M, 0.25},
    {"Medellin", 6.25, -75.56, 4.1 * M, 0.20},
    {"Cali", 3.45, -76.53, 2.9 * M, 0.20},
    {"Caracas", 10.48, -66.90, 2.9 * M, 0.22},
    {"Quito", -0.18, -78.47, 2.1 * M, 0.18},
    {"Guayaquil", -2.19, -79.89, 3.1 * M, 0.20},
    {"La Paz", -16.50, -68.15, 1.9 * M, 0.18},
    {"Asuncion", -25.26, -57.58, 2.4 * M, 0.22},
    {"Montevideo", -34.90, -56.16, 1.8 * M, 0.20},
    {"Punta Arenas", -53.16, -70.91, 0.14 * M, 0.15},
    // --- Oceania ---
    {"Sydney", -33.87, 151.21, 5.4 * M, 0.35},
    {"Melbourne", -37.81, 144.96, 5.2 * M, 0.35},
    {"Brisbane", -27.47, 153.03, 2.6 * M, 0.30},
    {"Perth", -31.95, 115.86, 2.1 * M, 0.28},
    {"Adelaide", -34.93, 138.60, 1.4 * M, 0.25},
    {"Auckland", -36.85, 174.76, 1.7 * M, 0.25},
    {"Wellington", -41.29, 174.78, 0.42 * M, 0.18},
    {"Christchurch", -43.53, 172.64, 0.40 * M, 0.18},
    {"Hobart", -42.88, 147.33, 0.25 * M, 0.18},
    {"Port Moresby", -9.44, 147.18, 0.40 * M, 0.18},
    {"Suva", -18.14, 178.44, 0.20 * M, 0.15},
};

// Very coarse continental background (people/km^2 over the whole box,
// oceans inside a box are smeared into the average). Calibrated so the
// global total lands near 8 billion together with the city splats.
constexpr region_density k_regions[] = {
    {"USA/Canada south", 25.0, 50.0, -125.0, -65.0, 20.0},
    {"Canada north", 50.0, 62.0, -125.0, -60.0, 1.2},
    {"Mexico/Central America", 8.0, 25.0, -112.0, -78.0, 40.0},
    {"Caribbean", 17.0, 24.0, -85.0, -64.0, 26.0},
    {"South America north", -5.0, 10.0, -80.0, -50.0, 14.0},
    {"Brazil east", -25.0, -5.0, -55.0, -35.0, 32.0},
    {"South America south", -40.0, -25.0, -73.0, -48.0, 12.0},
    {"Patagonia", -54.0, -40.0, -75.0, -63.0, 1.0},
    {"Europe west", 36.0, 60.0, -10.0, 20.0, 85.0},
    {"Europe east", 44.0, 60.0, 20.0, 40.0, 40.0},
    {"Scandinavia", 58.0, 66.0, 5.0, 30.0, 4.0},
    {"Russia west", 50.0, 62.0, 30.0, 60.0, 12.0},
    {"Russia/Siberia", 50.0, 62.0, 60.0, 135.0, 1.5},
    {"North Africa coast", 28.0, 37.0, -10.0, 32.0, 26.0},
    {"Nile valley", 22.0, 31.0, 28.0, 34.0, 80.0},
    {"West Africa", 4.0, 16.0, -17.0, 15.0, 55.0},
    {"East Africa", -12.0, 16.0, 28.0, 48.0, 44.0},
    {"Central Africa", -12.0, 4.0, 8.0, 28.0, 20.0},
    {"Southern Africa", -35.0, -12.0, 12.0, 40.0, 13.0},
    {"Middle East", 12.0, 38.0, 34.0, 60.0, 17.0},
    {"Central Asia", 36.0, 52.0, 52.0, 78.0, 6.0},
    {"South Asia", 8.0, 33.0, 68.0, 92.0, 275.0},
    {"China east", 21.0, 42.0, 102.0, 123.0, 138.0},
    {"China west", 28.0, 45.0, 78.0, 102.0, 4.0},
    {"Korea/Japan", 31.0, 43.0, 124.0, 142.0, 80.0},
    {"SE Asia mainland", 8.0, 24.0, 92.0, 110.0, 70.0},
    {"Indonesia/Philippines", -10.0, 19.0, 95.0, 127.0, 58.0},
    {"Java", -8.5, -5.5, 105.0, 115.0, 600.0},
    {"Australia east", -39.0, -16.0, 138.0, 154.0, 2.2},
    {"Australia west/center", -35.0, -16.0, 113.0, 138.0, 0.3},
    {"New Zealand", -47.0, -34.0, 166.0, 179.0, 1.8},
};

} // namespace

std::span<const city> world_cities() noexcept
{
    return k_cities;
}

std::vector<city> top_cities(int n)
{
    expects(n > 0, "top_cities needs n > 0");

    std::vector<const city*> by_population;
    by_population.reserve(world_cities().size());
    for (const city& c : world_cities()) by_population.push_back(&c);
    std::sort(by_population.begin(), by_population.end(),
              [](const city* a, const city* b) {
                  if (a->population != b->population)
                      return a->population > b->population;
                  return std::string_view(a->name) < std::string_view(b->name);
              });

    constexpr double min_separation_deg = 5.0;
    const double min_separation_rad = deg2rad(min_separation_deg);
    std::vector<city> picked;
    picked.reserve(static_cast<std::size_t>(n));
    for (const city* c : by_population) {
        if (static_cast<int>(picked.size()) == n) break;
        const bool clear = std::none_of(
            picked.begin(), picked.end(), [&](const city& p) {
                return geo::central_angle_rad(c->latitude_deg, c->longitude_deg,
                                              p.latitude_deg, p.longitude_deg) <
                       min_separation_rad;
            });
        if (clear) picked.push_back(*c);
    }
    expects(static_cast<int>(picked.size()) == n,
            "gazetteer cannot supply n cities at this separation");
    return picked;
}

std::span<const region_density> background_regions() noexcept
{
    return k_regions;
}

} // namespace ssplane::demand
